package experiments

import (
	"strings"
	"testing"
)

func TestRegistryIsConsistent(t *testing.T) {
	ids := IDs()
	if len(ids) != len(registry) {
		t.Fatalf("IDs() returned %d, registry has %d", len(ids), len(registry))
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate experiment id %q", id)
		}
		seen[id] = true
		title, err := Title(id)
		if err != nil || title == "" {
			t.Errorf("Title(%q) = %q, %v", id, title, err)
		}
	}
	if _, err := Title("nope"); err == nil {
		t.Error("Title(nope) succeeded")
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope"); err == nil {
		t.Error("Run(nope) succeeded")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{
		ID:    "x",
		Title: "t",
		Checks: []Check{
			{Name: "a", Pass: true},
			{Name: "b", Pass: false},
		},
	}
	if r.Passed() {
		t.Error("Passed() with a failing check")
	}
	failed := r.FailedChecks()
	if len(failed) != 1 || failed[0] != "b" {
		t.Errorf("FailedChecks = %v", failed)
	}
	out := r.Render()
	for _, want := range []string{"=== x: t ===", "PASS", "FAIL"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q", want)
		}
	}
}

func TestCheckBuilders(t *testing.T) {
	if c := checkNear("n", "p", 10, 10, 0.5); !c.Pass {
		t.Error("checkNear exact failed")
	}
	if c := checkNear("n", "p", 11, 10, 0.5); c.Pass {
		t.Error("checkNear out of band passed")
	}
	if c := checkBetween("n", "p", 5, 0, 10); !c.Pass {
		t.Error("checkBetween in band failed")
	}
	if c := checkBetween("n", "p", 11, 0, 10); c.Pass {
		t.Error("checkBetween out of band passed")
	}
	if c := checkTrue("n", "p", "m", true); !c.Pass || c.Measured != "m" {
		t.Error("checkTrue failed")
	}
}

// TestAllExperimentsPass runs every registered experiment end to end and
// requires every shape check to pass: the full paper reproduction as a
// single test gate. Experiments run in parallel; the whole gate takes a
// few seconds.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment runs in -short mode")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			res, err := Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Passed() {
				t.Errorf("%s failed checks: %v", id, res.FailedChecks())
			}
			if len(res.Checks) == 0 {
				t.Errorf("%s carries no shape checks", id)
			}
			if res.Render() == "" {
				t.Errorf("%s renders empty", id)
			}
		})
	}
}

func TestTable1ShapeChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs in -short mode")
	}
	res, err := Run("table1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Errorf("table1 failed checks: %v", res.FailedChecks())
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 5 {
		t.Error("table1 did not produce 5 processor rows")
	}
}

func TestTraceConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("trace runs in -short mode")
	}
	rec, err := Trace("credit2", "ondemand", "exact", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Names()) == 0 {
		t.Error("trace recorded nothing")
	}
	for _, bad := range [][3]string{
		{"nope", "paper", "exact"},
		{"credit", "nope", "exact"},
		{"credit", "paper", "nope"},
		{"pas", "paper", "exact"}, // pas requires -gov none
	} {
		if _, err := Trace(bad[0], bad[1], bad[2], 1); err == nil {
			t.Errorf("Trace(%v) succeeded", bad)
		}
	}
}

func TestScenarioBuilderValidation(t *testing.T) {
	if _, err := newScenario("cfs", govPerformance, loadExact, 1); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if _, err := newScenario("credit", govKind(99), loadExact, 1); err == nil {
		t.Error("unknown governor kind accepted")
	}
}
