package fleet

import (
	"bytes"
	"testing"

	"pasched/internal/obs"
	"pasched/internal/sim"
)

// TestFleetPerfettoTrace runs the churn scenario with a streaming
// Perfetto sink and checks the produced document is a well-formed
// trace: valid JSON, legal phases, non-overlapping slices per track,
// monotone counters — and that the run actually produced per-VM state
// slices, counters, and instants (the trace is not vacuously valid).
// Exporting the same run twice must produce the same bytes.
func TestFleetPerfettoTrace(t *testing.T) {
	seed := uint64(7)
	tr := churnTrace(t, seed)
	export := func() []byte {
		var buf bytes.Buffer
		cfg := churnConfig(2, 2, seed)
		cfg.Obs = ObsConfig{Enabled: true, Sink: obs.NewPerfettoWriter(&buf)}
		if rep := runFleet(t, cfg, tr, 300*sim.Second); rep.Summary.ObsEvents == 0 {
			t.Error("summary reports no recorder events despite an enabled sink")
		}
		return buf.Bytes()
	}
	trace := export()
	if !bytes.Equal(trace, export()) {
		t.Error("two exports of the same run differ")
	}

	st, err := obs.ValidatePerfetto(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("fleet-produced trace rejected: %v", err)
	}
	if st.Slices == 0 || st.Counters == 0 || st.Instants == 0 || st.Tracks == 0 {
		t.Fatalf("vacuous trace: %+v", st)
	}
	if st.EndUs != int64(300*sim.Second) {
		t.Errorf("trace ends at %d us, want %d", st.EndUs, int64(300*sim.Second))
	}
	// The migration churn must show up as named migration instants.
	if !bytes.Contains(trace, []byte(`"mig-start`)) {
		t.Error("no migration instants in the trace despite consolidation churn")
	}
}
