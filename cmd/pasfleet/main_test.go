package main

import (
	"bytes"
	"expvar"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pasched/internal/fleet"
	"pasched/internal/obs"
	"pasched/internal/sim"
)

func TestParseTraceSpec(t *testing.T) {
	cases := []struct {
		spec, path string
		ok         bool
	}{
		{"", "", true},
		{"perfetto", "trace.json", true},
		{"perfetto:run.json", "run.json", true},
		{"perfetto:", "", false},
		{"zipkin", "", false},
		{"perfetto.json", "", false},
	}
	for _, tc := range cases {
		path, ok := parseTraceSpec(tc.spec)
		if path != tc.path || ok != tc.ok {
			t.Errorf("parseTraceSpec(%q) = %q, %v; want %q, %v", tc.spec, path, ok, tc.path, tc.ok)
		}
	}
}

// TestFlagValidation: every malformed flag fails before any trace or
// fleet construction, with exit 2 and a message naming the accepted
// values.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"trace spec", []string{"-trace", "zipkin"}, "accepted: perfetto, perfetto:path"},
		{"trace spec empty path", []string{"-trace", "perfetto:"}, "invalid trace spec"},
		{"metrics addr", []string{"-metrics-addr", "not an:address:at all"}, "invalid metrics address"},
		{"scheduler", []string{"-sched", "bogus"}, "unknown scheduler"},
		{"shards", []string{"-shards", "-2"}, "invalid shard count"},
		{"stream", []string{"-stream", "xml"}, "invalid stream spec"},
		{"gen-stream vs vmtrace", []string{"-gen-stream", "-vmtrace", "x.csv"}, "-gen-stream conflicts with -vmtrace"},
		{"lifetime", []string{"-lifetime", "-3"}, "invalid mean lifetime"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(tc.args, &out, &errOut); code != 2 {
				t.Fatalf("exit %d, want 2; stderr: %s", code, errOut.String())
			}
			if !strings.Contains(errOut.String(), tc.want) {
				t.Errorf("stderr %q does not name the accepted values (%q)", errOut.String(), tc.want)
			}
		})
	}
}

// TestRunWithRecorder drives a small serving scenario end to end with
// the flight recorder, heartbeat, and metrics endpoint enabled: the
// produced Perfetto file must pass the validator and the summary must
// carry the recorder totals.
func TestRunWithRecorder(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run_trace.json")
	var out, errOut bytes.Buffer
	code := run([]string{
		"-machines", "8", "-arrivals", "25", "-horizon", "45", "-report", "5",
		"-serve", "-trace", "perfetto:" + trace,
		"-status", "-metrics-addr", "127.0.0.1:0",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"serving metrics on http://127.0.0.1:", "wrote Perfetto trace"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errOut.String())
		}
	}
	if !strings.Contains(out.String(), "recorder events") {
		t.Errorf("summary missing the recorder rows:\n%s", out.String())
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := obs.ValidatePerfetto(f)
	if err != nil {
		t.Fatalf("produced trace rejected: %v", err)
	}
	if st.Slices == 0 || st.Instants == 0 {
		t.Errorf("vacuous trace: %+v", st)
	}
}

// TestVMTraceRoundTrip: -write-trace output feeds back through
// -vmtrace (the renamed lifecycle-trace input flag).
func TestVMTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "vms.csv")
	var out, errOut bytes.Buffer
	if code := run([]string{"-machines", "8", "-arrivals", "20", "-horizon", "30",
		"-write-trace", csv}, &out, &errOut); code != 0 {
		t.Fatalf("write-trace exit %d: %s", code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-machines", "8", "-horizon", "30", "-vmtrace", csv}, &out, &errOut); code != 0 {
		t.Fatalf("vmtrace exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Fleet run:") {
		t.Errorf("no summary from the -vmtrace run:\n%s", out.String())
	}
}

// TestGenStreamMatchesMaterialized: the same run through -gen-stream
// (lazy generator, streamed source) and the default materialized path
// must print identical summaries, and -gen-stream -write-trace must
// emit the byte-identical CSV.
func TestGenStreamMatchesMaterialized(t *testing.T) {
	args := []string{"-machines", "8", "-arrivals", "40", "-horizon", "60", "-seed", "9"}
	var matOut, streamOut, errOut bytes.Buffer
	if code := run(args, &matOut, &errOut); code != 0 {
		t.Fatalf("materialized exit %d: %s", code, errOut.String())
	}
	if code := run(append([]string{"-gen-stream"}, args...), &streamOut, &errOut); code != 0 {
		t.Fatalf("gen-stream exit %d: %s", code, errOut.String())
	}
	// Strip the peak-RSS row: it reflects the process high-water mark, the
	// one summary quantity that legitimately differs between invocations.
	strip := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.Contains(line, "peak RSS") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if strip(matOut.String()) != strip(streamOut.String()) {
		t.Errorf("summaries differ:\nmaterialized:\n%s\ngen-stream:\n%s", matOut.String(), streamOut.String())
	}

	dir := t.TempDir()
	matCSV, streamCSV := filepath.Join(dir, "mat.csv"), filepath.Join(dir, "stream.csv")
	if code := run(append([]string{"-write-trace", matCSV}, args...), &matOut, &errOut); code != 0 {
		t.Fatalf("write-trace exit %d: %s", code, errOut.String())
	}
	if code := run(append([]string{"-gen-stream", "-write-trace", streamCSV}, args...), &streamOut, &errOut); code != 0 {
		t.Fatalf("gen-stream write-trace exit %d: %s", code, errOut.String())
	}
	mat, err := os.ReadFile(matCSV)
	if err != nil {
		t.Fatal(err)
	}
	str, err := os.ReadFile(streamCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mat, str) {
		t.Errorf("-write-trace CSVs differ between materialized and streamed generation")
	}
}

func testFleet(t *testing.T) *fleet.Fleet {
	t.Helper()
	tr, err := fleet.Generate(fleet.GenConfig{Seed: 5, Arrivals: 10, Horizon: 30 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := fleet.New(fleet.Config{
		Machines: fleet.DefaultEstate(4),
		Seed:     5,
		Obs:      fleet.ObsConfig{Enabled: true},
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// TestExpvarMetrics checks the published expvar tree reads the live
// fleet's progress counters (and survives repeated publication).
func TestExpvarMetrics(t *testing.T) {
	fl := testFleet(t)
	if _, err := fl.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	liveFleet.Store(fl)
	defer liveFleet.Store(nil)
	publishMetrics()
	publishMetrics() // must not panic on re-publication
	v := expvar.Get("pasfleet")
	if v == nil {
		t.Fatal("pasfleet expvar not published")
	}
	s := v.String()
	for _, key := range []string{`"sim_us"`, `"events"`, `"live_vms"`} {
		if !strings.Contains(s, key) {
			t.Errorf("expvar %s missing %s", s, key)
		}
	}
	if !strings.Contains(s, `"sim_us":30000000`) {
		t.Errorf("expvar sim_us not at the horizon: %s", s)
	}
}

// TestHeartbeat runs the status ticker against a finished fleet long
// enough for one tick and checks the line shape.
func TestHeartbeat(t *testing.T) {
	fl := testFleet(t)
	if _, err := fl.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	stop := make(chan struct{})
	done := make(chan struct{})
	go heartbeat(&buf, fl, stop, done)
	time.Sleep(1200 * time.Millisecond)
	close(stop)
	<-done
	line := buf.String()
	for _, want := range []string{"pasfleet: sim 30.0s", "events", "live VMs", "rss"} {
		if !strings.Contains(line, want) {
			t.Errorf("heartbeat %q missing %q", line, want)
		}
	}
}
