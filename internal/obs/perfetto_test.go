package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"unicode/utf8"

	"pasched/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/perfetto_golden.json from the current encoder")

// Golden VM names: each needs a different escape in encoding/json's
// HTML-safe string encoding (quote, backslash, <, >, &, control bytes,
// U+2028/U+2029, invalid UTF-8), or none at all (plain and non-ASCII).
const (
	vmPlain   = "vm-1"
	vmQuote   = `web "front"`
	vmSlash   = `C:\vm\2`
	vmHTML    = "<db> & </db>"
	vmLineSep = "line\u2028sep\u2029end"
	vmUnicode = "héllo-世界-✓"
	vmControl = "tab\there\nnl\x01\x1f"
	vmInvalid = "bad\xffutf8\xc3"
)

// goldenWindows covers every Kind and one out-of-range Kind: VM state slices (including an
// unknown state value and idle gaps), both boundary outcomes (a known
// source and an unknown name, which exports nothing), coordinator
// instants carrying escaped VM names, and slices still open at Finish.
func goldenWindows() [][]Event {
	return [][]Event{{
		{At: 0, Lane: LaneCoordinator, Seq: 1, Kind: KindPowerOn, A: 0},
		{At: 0, Lane: LaneCoordinator, Seq: 2, Kind: KindPowerOn, A: 12},
		{At: 0, Lane: LaneCoordinator, Seq: 3, Kind: KindPlace, VM: vmQuote, A: 0},
		{At: 0, Lane: LaneCoordinator, Seq: 4, Kind: KindPlace, VM: vmHTML, A: 12},
		{At: 0, Lane: LaneCoordinator, Seq: 5, Kind: KindReject, VM: vmInvalid},
		{At: 10, Lane: 0, Seq: 1, Kind: KindVMState, VM: vmQuote, A: int64(StateRun)},
		{At: 10, Lane: 0, Seq: 2, Kind: KindVMState, VM: vmSlash, A: int64(StateContended)},
		{At: 10, Lane: 12, Seq: 1, Kind: KindVMState, VM: vmHTML, A: int64(StateCapped)},
		{At: 20, Lane: 0, Seq: 3, Kind: KindPattern, A: 40, B: 2},
		{At: 20, Lane: 12, Seq: 2, Kind: KindExhausted, VM: vmHTML},
		{At: 30, Lane: 0, Seq: 4, Kind: KindPState, A: 1600},
		{At: 30, Lane: 0, Seq: 5, Kind: KindRecompensate, A: 1600, B: 2},
		{At: 30, Lane: 0, Seq: 6, Kind: KindVMState, VM: vmQuote, A: int64(StateDownclocked)},
		{At: 35, Lane: 0, Seq: 7, Kind: KindVMState, VM: vmSlash, A: int64(StateIdle)},
		{At: 40, Lane: 0, Seq: 8, Kind: KindRefill},
		{At: 45, Lane: 0, Seq: 9, Kind: KindExhausted, VM: vmQuote},
		{At: 45, Lane: 0, Seq: 10, Kind: KindVMState, VM: vmQuote, A: int64(StateCapped)},
		{At: 50, Lane: 12, Seq: 3, Kind: KindVMState, VM: vmHTML, A: 42}, // unknown state
		{At: 50, Lane: 12, Seq: 4, Kind: KindVMState, VM: vmLineSep, A: int64(StateRun)},
		{At: 55, Lane: 12, Seq: 5, Kind: KindVMState, VM: vmUnicode, A: int64(StateContended)},
		{At: 60, Lane: LaneCoordinator, Seq: 6, Kind: KindMigStart, VM: vmQuote, A: 0, B: 12},
		{At: 60, Lane: 0, Seq: 11, Kind: KindVMState, VM: vmQuote, A: int64(StateMigrating)},
		{At: 100, Lane: 0, Seq: 12, Kind: KindBoundary, VM: "target", A: 3},
		{At: 100, Lane: 0, Seq: 13, Kind: KindBoundary, VM: "event", A: 7},
		{At: 100, Lane: 0, Seq: 14, Kind: KindBoundary, VM: "action", A: 0},
		{At: 100, Lane: 0, Seq: 15, Kind: KindBoundary, VM: "machine-shortened", A: 1},
		{At: 100, Lane: 0, Seq: 16, Kind: KindBoundary, VM: "machine-declined", A: -2},
		{At: 100, Lane: 0, Seq: 17, Kind: KindBoundary, VM: "no-such-source", A: 9},
		{At: 100, Lane: 0, Seq: 18, Kind: KindQueueDepth, VM: vmQuote, A: 3, B: 17},
		{At: 100, Lane: 12, Seq: 6, Kind: KindQueueDepth, VM: vmControl, A: 0, B: 1},
		{At: 100, Lane: 12, Seq: 7, Kind: KindQueueDepth, VM: vmUnicode, A: 1 << 40, B: 2},
		{At: 100, Lane: LaneCoordinator, Seq: 7, Kind: KindLatency, A: 1500, B: 9000},
		{At: 100, Lane: LaneCoordinator, Seq: 8, Kind: KindAutoscale, VM: vmLineSep, A: 1, B: 35},
		{At: 100, Lane: LaneCoordinator, Seq: 9, Kind: KindBarrier, A: 6},
		{At: 100, Lane: LaneCoordinator, Seq: 10, Kind: Kind(99), VM: vmQuote, A: 1}, // exports nothing
	}, {
		{At: 110, Lane: LaneCoordinator, Seq: 11, Kind: KindMigDone, VM: vmQuote, A: 12},
		{At: 110, Lane: 0, Seq: 19, Kind: KindVMState, VM: vmQuote, A: int64(StateIdle)},
		{At: 110, Lane: 12, Seq: 8, Kind: KindVMState, VM: vmQuote, A: int64(StateRun)},
		{At: 150, Lane: 12, Seq: 9, Kind: KindVMState, VM: vmLineSep, A: int64(StateNone)},
		{At: 160, Lane: 12, Seq: 10, Kind: KindVMState, VM: vmPlain, A: int64(StateRun)},
		{At: 200, Lane: 12, Seq: 11, Kind: KindVMState, VM: vmPlain, A: int64(StateDownclocked)},
		{At: 200, Lane: 12, Seq: 12, Kind: KindPState, A: -1},
		{At: 200, Lane: LaneCoordinator, Seq: 12, Kind: KindPowerOff, A: 0},
		{At: 200, Lane: LaneCoordinator, Seq: 13, Kind: KindLatency, A: 0, B: -7},
		{At: 200, Lane: LaneCoordinator, Seq: 14, Kind: KindAutoscale, VM: vmControl, A: -3, B: 1<<62 + 5},
		{At: 200, Lane: LaneCoordinator, Seq: 15, Kind: KindBarrier, A: 5},
	}}
}

// goldenEnd is the Finish time: it closes every slice still open at an
// earlier time and leaves the one opened at goldenEnd itself alone.
const goldenEnd sim.Time = 200

// TestPerfettoGolden pins the exporter's bytes: the committed file was
// recorded with the fmt/encoding/json based encoder the append-only
// one replaced, so both must agree byte for byte.
func TestPerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	pw := NewPerfettoWriter(&buf)
	for _, w := range goldenWindows() {
		if err := pw.Events(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Finish(goldenEnd); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "perfetto_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := buf.Bytes()
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("export differs from %s at byte %d:\n got: %q\nwant: %q",
			path, i, got[max(0, i-80):min(len(got), i+80)], want[max(0, i-80):min(len(want), i+80)])
	}
	if _, err := ValidatePerfetto(bytes.NewReader(want)); err != nil {
		t.Fatalf("golden trace is not well-formed: %v", err)
	}
}

// TestAppendJSONString: the encoder's string escaping matches
// encoding/json byte for byte on every single byte, on the runes it
// treats specially, and on random byte strings.
func TestAppendJSONString(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
	for c := 0; c < 256; c++ {
		check(string([]byte{byte(c)}))
		check("a" + string([]byte{byte(c)}) + "z")
	}
	for _, r := range []rune{0x7f, 0x80, 0x7ff, 0x800, 0x2027, 0x2028, 0x2029, 0x202a, 0xfffd, 0xffff, utf8.MaxRune} {
		check("x" + string(r) + "y")
	}
	rng := sim.NewRNG(3)
	for range 2000 {
		b := make([]byte, rng.Intn(24))
		for i := range b {
			switch rng.Intn(4) {
			case 0:
				b[i] = byte(rng.Intn(0x20))
			case 1:
				b[i] = `"\<>&`[rng.Intn(5)]
			default:
				b[i] = byte(rng.Uint64())
			}
		}
		check(string(b))
		check(string(b) + "\u2028é\u2029")
	}
}
