package platform

import (
	"strings"
	"testing"

	"pasched/internal/cpufreq"
	"pasched/internal/sched"
)

func TestPlatformsMatchTable2Columns(t *testing.T) {
	want := []string{"Hyper-V", "VMware", "Xen/credit", "Xen/PAS", "Xen/SEDF", "KVM", "Vbox"}
	got := Platforms()
	if len(got) != len(want) {
		t.Fatalf("got %d platforms, want %d", len(got), len(want))
	}
	for i, p := range got {
		if p.Name != want[i] {
			t.Errorf("platform[%d] = %q, want %q", i, p.Name, want[i])
		}
		if p.Overhead <= 0 {
			t.Errorf("%s: non-positive overhead %v", p.Name, p.Overhead)
		}
	}
}

func TestFamilyClassification(t *testing.T) {
	fix := map[string]bool{"Hyper-V": true, "VMware": true, "Xen/credit": true, "Xen/PAS": true}
	for _, p := range Platforms() {
		if fix[p.Name] != (p.Family == FixCredit) {
			t.Errorf("%s: family = %v", p.Name, p.Family)
		}
	}
	if FixCredit.String() != "fix credit" || VariableCredit.String() != "variable credit" {
		t.Error("family strings wrong")
	}
	if Family(0).String() != "unknown" {
		t.Error("unknown family string wrong")
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("Xen/PAS")
	if err != nil || !p.PAS {
		t.Errorf("ByName(Xen/PAS) = %+v, %v", p, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) succeeded")
	}
}

func TestGovernorModeString(t *testing.T) {
	if Performance.String() != "Performance" || OnDemand.String() != "OnDemand" {
		t.Error("mode strings wrong")
	}
	if GovernorMode(0).String() != "unknown" {
		t.Error("unknown mode string wrong")
	}
}

func TestNewPartsSchedulers(t *testing.T) {
	prof := cpufreq.Elite8300()
	tests := []struct {
		name      string
		wantSched string
		wantPAS   bool
	}{
		{"Hyper-V", "credit", false},
		{"Xen/PAS", "pas", true},
		{"Xen/SEDF", "sedf", false},
		{"KVM", "credit2", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, err := ByName(tt.name)
			if err != nil {
				t.Fatal(err)
			}
			parts, err := p.NewParts(prof, OnDemand)
			if err != nil {
				t.Fatal(err)
			}
			if got := parts.Scheduler.Name(); got != tt.wantSched {
				t.Errorf("scheduler = %q, want %q", got, tt.wantSched)
			}
			if _, isPAS := parts.Scheduler.(sched.LoadBinder); isPAS != tt.wantPAS {
				t.Errorf("PAS present = %v, want %v", isPAS, tt.wantPAS)
			}
		})
	}
}

func TestNewPartsGovernors(t *testing.T) {
	prof := cpufreq.Elite8300()

	// Performance mode: a plain performance governor (except Xen/PAS).
	hv, err := ByName("Hyper-V")
	if err != nil {
		t.Fatal(err)
	}
	parts, err := hv.NewParts(prof, Performance)
	if err != nil {
		t.Fatal(err)
	}
	if parts.Governor == nil || parts.Governor.Name() != "performance" {
		t.Errorf("Hyper-V/Performance governor = %v", parts.Governor)
	}

	// OnDemand with a floor: a clamped governor.
	vw, err := ByName("VMware")
	if err != nil {
		t.Fatal(err)
	}
	parts, err = vw.NewParts(prof, OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	if parts.Governor == nil || !strings.Contains(parts.Governor.Name(), "clamped") {
		t.Errorf("VMware/OnDemand governor = %v, want clamped", parts.Governor)
	}

	// PAS under OnDemand: no external governor.
	pas, err := ByName("Xen/PAS")
	if err != nil {
		t.Fatal(err)
	}
	parts, err = pas.NewParts(prof, OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	if parts.Governor != nil {
		t.Errorf("Xen/PAS/OnDemand has external governor %v", parts.Governor)
	}

	// Unknown mode errors.
	if _, err := pas.NewParts(prof, GovernorMode(0)); err == nil {
		t.Error("NewParts(unknown mode) succeeded")
	}
}

func TestNewPartsSchedulerIsCapSetterForFixCredit(t *testing.T) {
	prof := cpufreq.Elite8300()
	for _, name := range []string{"Hyper-V", "VMware", "Xen/credit", "Xen/PAS"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := p.NewParts(prof, Performance)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := parts.Scheduler.(sched.CapSetter); !ok {
			t.Errorf("%s: scheduler is not a CapSetter", name)
		}
	}
}
