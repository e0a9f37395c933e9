package experiments

import (
	"strings"
	"testing"
)

func planFor(t *testing.T, req SweepRequest) *SweepPlan {
	t.Helper()
	p, err := NewSweepPlan(req)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFingerprintStable pins that a plan's fingerprint is a pure function
// of the spec: rebuilding the same request reproduces it, and it ignores
// execution-only knobs (worker counts) — the properties the distributed
// lease protocol relies on to match coordinator and worker plans.
func TestFingerprintStable(t *testing.T) {
	for _, name := range SweepExperiments() {
		req := SweepRequest{Experiment: name, Options: Options{Packets: 4, PSDUBytes: 60, Seed: 7}}
		a := planFor(t, req)
		b := planFor(t, req)
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("%s: fingerprint not reproducible", name)
		}
		// Execution-only knobs must not change identity.
		c := planFor(t, req)
		for i := range c.Points {
			c.Points[i].Cfg.Workers = 3
		}
		if a.Fingerprint() != c.Fingerprint() {
			t.Errorf("%s: fingerprint depends on worker counts", name)
		}
	}
}

// TestFingerprintDiscriminates pins that every spec field a lease could
// silently disagree on — seed, fidelity, axis, receivers, MCS — changes
// the fingerprint.
func TestFingerprintDiscriminates(t *testing.T) {
	base := SweepRequest{Experiment: "fig8", Options: Options{Packets: 4, PSDUBytes: 60, Seed: 7}}
	fp := planFor(t, base).Fingerprint()
	variants := map[string]SweepRequest{
		"seed":      {Experiment: "fig8", Options: Options{Packets: 4, PSDUBytes: 60, Seed: 8}},
		"packets":   {Experiment: "fig8", Options: Options{Packets: 5, PSDUBytes: 60, Seed: 7}},
		"bytes":     {Experiment: "fig8", Options: Options{Packets: 4, PSDUBytes: 64, Seed: 7}},
		"axis":      {Experiment: "fig8", Options: base.Options, Axis: []float64{-10, -20}},
		"receivers": {Experiment: "fig8", Options: base.Options, Receivers: []ReceiverKind{Standard}},
		"mcs":       {Experiment: "fig8", Options: base.Options, MCS: []string{"QPSK 1/2"}},
		"exp":       {Experiment: "fig9", Options: base.Options},
	}
	for what, req := range variants {
		if got := planFor(t, req).Fingerprint(); got == fp {
			t.Errorf("changing %s did not change the fingerprint", what)
		}
	}
}

// TestPointIdentityDistinct pins that no two points of a plan share an
// identity line (the delay-spread points differ only by channel taps).
func TestPointIdentityDistinct(t *testing.T) {
	for _, name := range SweepExperiments() {
		p := planFor(t, SweepRequest{Experiment: name, Options: Options{Packets: 4, PSDUBytes: 60, Seed: 7}})
		seen := make(map[string]int, len(p.Points))
		for i := range p.Points {
			id := p.PointIdentity(i)
			if !strings.Contains(id, name) {
				t.Fatalf("%s point %d identity %q lacks the plan name", name, i, id)
			}
			if j, dup := seen[id]; dup {
				t.Errorf("%s: points %d and %d share identity %q", name, j, i, id)
			}
			seen[id] = i
		}
	}
}
