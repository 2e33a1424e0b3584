package expt

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// goldenExperiments are the reports frozen in testdata: one timing
// characterization, one geometry reverse-engineering, and one covert
// transmission — the three layers the Profile refactor must not move
// by a single byte on the paper's machine.
var goldenExperiments = []string{"fig4", "table1", "fig10"}

// TestGoldenP100 asserts that the p100-dgx1 profile (requested
// explicitly, the way `spybox run -arch p100-dgx1` does) reproduces
// the pre-Profile-refactor reports byte-for-byte at the default seed.
// testdata/golden_p100_small.txt was generated by the pre-refactor
// code; regenerating it with -update defeats the test's purpose
// unless the output change is intended and reviewed.
func TestGoldenP100(t *testing.T) {
	t.Parallel()
	p := Params{Seed: 20230612, Scale: Small, Parallel: 1, Arch: "p100-dgx1"}
	checkGolden(t, p, goldenExperiments, "golden_p100_small.txt")
}

// goldenV100Experiments freeze the two-stage fabric's output: the
// Sec. VII detector with per-plane localization and the port-
// contention sweep. Anything that moves a queue delay, a plane
// counter, or a stage latency shows up here first.
var goldenV100Experiments = []string{"sec7", "fabricsweep"}

// TestGoldenV100 pins the v100-dgx2 (NVSwitch two-stage fabric)
// reports byte-for-byte at the default seed, the way TestGoldenP100
// pins the paper's machine. Regenerate with -update only when an
// output change is intended and reviewed.
func TestGoldenV100(t *testing.T) {
	if testing.Short() {
		t.Skip("v100 golden run re-runs the full attack setup five times; skipped in -short CI runs")
	}
	t.Parallel()
	p := Params{Seed: 20230612, Scale: Small, Parallel: 1, Arch: "v100-dgx2"}
	checkGolden(t, p, goldenV100Experiments, "golden_v100_small.txt")
}

// goldenChannelExperiments freeze the covert-channel paths no other
// golden reaches: sec6 drives Channel.TransmitWith's beforeRun hook
// (noise and occupancy blocking), multigpu drives MultiChannel's
// striping over two spy GPUs, and mig runs attack-pair discovery on a
// partitioned machine.
var goldenChannelExperiments = []string{"sec6", "multigpu", "mig"}

// TestGoldenChannels pins those reports byte-for-byte on the paper's
// machine at the default seed. It runs in -short mode too (about 3 s
// at -parallel 1), so CI's test job exercises it. Regenerate with
// -update only when an output change is intended and reviewed.
func TestGoldenChannels(t *testing.T) {
	t.Parallel()
	p := Params{Seed: 20230612, Scale: Small, Parallel: 1, Arch: "p100-dgx1"}
	checkGolden(t, p, goldenChannelExperiments, "golden_channels_small.txt")
}

// TestSecVIHonoursArch runs sec6 on v100-dgx2 and requires a report
// that differs from the p100-dgx1 one TestGoldenChannels pins at the
// head of its golden file: the condition trials must build their
// machines from the run's -arch, not silently fall back to the
// paper's box. The Sec. VI claim must hold on the switch-fabric box
// too.
func TestSecVIHonoursArch(t *testing.T) {
	t.Parallel()
	p := Params{Seed: 20230612, Scale: Small, Parallel: 1, Arch: "v100-dgx2"}
	r, err := SecVI(p)
	if err != nil {
		t.Fatal(err)
	}
	quiet, noisy, blocked := r.Metrics["error_quiet_pct"], r.Metrics["error_noisy_pct"], r.Metrics["error_blocked_pct"]
	if noisy <= quiet || blocked >= noisy {
		t.Errorf("Sec. VI claim fails on v100-dgx2: quiet %v%%, noisy %v%%, blocked %v%%", quiet, noisy, blocked)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	p100, err := os.ReadFile(filepath.Join("testdata", "golden_channels_small.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.HasPrefix(p100, buf.Bytes()) {
		t.Fatal("sec6 on v100-dgx2 reproduced the p100-dgx1 report; -arch was ignored")
	}
}

// checkGolden runs the experiments in order, concatenates their text
// reports, and compares them with testdata/name (or rewrites the file
// under -update).
func checkGolden(t *testing.T, p Params, ids []string, name string) {
	t.Helper()
	var buf bytes.Buffer
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		r, err := e.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		r.Print(&buf)
	}
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output diverged from %s.\n"+
			"got %d bytes, want %d; first divergence near byte %d",
			path, buf.Len(), len(want), firstDiff(buf.Bytes(), want))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
