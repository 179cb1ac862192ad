package fleet

import (
	"strings"
	"testing"

	"pasched/internal/sim"
	"pasched/internal/workload"
)

// TestFleetAutoscaleValidation covers the configuration rejections.
func TestFleetAutoscaleValidation(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 1, Arrivals: 3, Horizon: 10 * sim.Second})
	base := func() Config {
		return Config{
			Machines:  testMachines(2, 0),
			Serving:   ServingConfig{Enabled: true},
			Obs:       ObsConfig{Enabled: true},
			Autoscale: AutoscaleConfig{Enabled: true},
		}
	}
	for name, tc := range map[string]struct {
		mut  func(*Config)
		want string
	}{
		"no serving": {func(c *Config) { c.Serving = ServingConfig{}; c.Obs = ObsConfig{} },
			"requires the serving layer"},
		"unknown policy": {func(c *Config) { c.Autoscale.Policy = "nope" }, "unknown policy"},
		"ditto sans obs": {func(c *Config) { c.Obs = ObsConfig{} }, "requires Obs.Enabled"},
		"replicas closed loop": {func(c *Config) {
			c.Autoscale.Policy = "queue"
			c.Autoscale.Params.MaxReplicas = 2
			c.Serving.ClosedLoop = true
			c.Serving.Clients = 4
		}, "open-loop serving"},
		"policy sans enabled": {func(c *Config) {
			c.Autoscale = AutoscaleConfig{Policy: "queue"}
		}, "without Autoscale.Enabled"},
		"bad params": {func(c *Config) { c.Autoscale.Params.StepPct = -1 }, "negative step"},
		"serving options sans enabled": {func(c *Config) {
			c.Autoscale = AutoscaleConfig{}
			c.Serving = ServingConfig{Slots: 4}
		}, "without Serving.Enabled"},
	} {
		cfg := base()
		tc.mut(&cfg)
		if _, err := New(cfg, tr); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", name, err, tc.want)
		}
	}
	// The default policy is ditto, which needs the recorder: base as-is
	// must construct, and must resolve the empty policy name.
	f, err := New(base(), tr)
	if err != nil {
		t.Fatalf("defaulted autoscale config rejected: %v", err)
	}
	if f.cfg.Autoscale.Policy != "ditto" {
		t.Errorf("default policy = %q, want ditto", f.cfg.Autoscale.Policy)
	}
}

// TestClipPhases pins the replica demand-profile clipping: phases fully
// before the split are dropped, a straddling phase is truncated, later
// phases survive untouched, and the result never aliases the input.
func TestClipPhases(t *testing.T) {
	in := []workload.Phase{
		{Start: 0, End: 30 * sim.Second, Rate: 10},
		{Start: 30 * sim.Second, End: 60 * sim.Second, Rate: 20},
		{Start: 60 * sim.Second, End: 90 * sim.Second, Rate: 5},
	}
	mid := (in[0].End + in[1].Start) / 2
	out := clipPhases(in, mid)
	if len(out) == 0 {
		t.Fatal("clip dropped everything")
	}
	for i, ph := range out {
		if ph.Start < mid {
			t.Errorf("phase %d starts %v before clip point %v", i, ph.Start, mid)
		}
	}
	cut := clipPhases(in, in[0].Start+(in[0].End-in[0].Start)/2)
	if cut[0].Start != in[0].Start+(in[0].End-in[0].Start)/2 || cut[0].End != in[0].End {
		t.Errorf("straddling phase not truncated: %+v", cut[0])
	}
	if &cut[0] == &in[0] {
		t.Error("clip aliases the input slice")
	}
	if got := clipPhases(in, in[len(in)-1].End); len(got) != 0 {
		t.Errorf("clip past the profile returned %d phases", len(got))
	}
}
