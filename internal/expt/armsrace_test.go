package expt

import "testing"

// TestGoldenArmsrace pins the armsrace report — and with it the
// per-round trace format and both policies' full decision sequences —
// byte-for-byte on the paper's machine at the default seed.
// Regenerate with -update only when a policy or format change is
// intended and reviewed.
func TestGoldenArmsrace(t *testing.T) {
	if testing.Short() {
		t.Skip("armsrace plays four full matches; skipped in -short CI runs")
	}
	t.Parallel()
	p := Params{Seed: 20230612, Scale: Small, Parallel: 1, Arch: "p100-dgx1"}
	checkGolden(t, p, []string{"armsrace"}, "golden_armsrace_small.txt")
}

// TestArmsRaceDominates asserts the experiment's headline claim at
// the default seed: on both shipped profiles at least one adaptive
// defender setting strictly dominates the static Sec. VII baseline —
// same or better detection rate, higher attacker error rate, and no
// extra benign false positives.
func TestArmsRaceDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("armsrace plays four full matches per profile; skipped in -short CI runs")
	}
	for _, archName := range []string{"", "v100-dgx2"} {
		archName := archName
		name := archName
		if name == "" {
			name = "p100-dgx1"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r, err := ArmsRace(Params{Seed: 20230612, Scale: Small, Parallel: 1, Arch: archName})
			if err != nil {
				t.Fatal(err)
			}
			if r.Metrics["dominates"] != 1 {
				t.Errorf("no adaptive setting dominates the static baseline on %s", name)
			}
			if r.Metrics["err_pct_contain"] <= r.Metrics["err_pct_static"] {
				t.Errorf("containment did not raise the attacker error rate: %g <= %g",
					r.Metrics["err_pct_contain"], r.Metrics["err_pct_static"])
			}
		})
	}
}
