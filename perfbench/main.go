// Command perfbench is spybox's end-to-end benchmark. It runs one named
// workload through the program's public API for a fixed time, checks
// every output, and prints the metrics as one JSON object on the last
// line of standard output: the end-to-end metrics with -trace 0, the
// per-layer metrics of a traced run with -trace 1. README.md describes
// the workloads and how to read the numbers; run.py builds and runs it.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"spybox/internal/xrand"
	"spybox/pkg/spybox"
)

// Timed passes rotate over passSeeds seeds derived from the workload
// seed, so a run's median spans several inputs and a seed whose
// simulation happens to be long or short moves it less. A run makes at
// least minPasses passes, so that every seed runs twice and its passes
// can be compared.
const (
	passSeeds = 3
	minPasses = 2 * passSeeds
)

// passSeed is the seed of the timed passes with i%passSeeds == k.
func passSeed(seed uint64, k int) uint64 { return xrand.SplitMix64At(seed, uint64(k)) }

// A workload is one benchmark scenario. Every pass of it goes through
// setup (timed as setup_s) and then run (timed as run_s), so passes
// are independent and must produce identical simulated outputs.
type workload struct {
	name string
	// prepare does untimed once-per-run work for seed, such as
	// computing reference outputs; it may be called twice for a seed.
	prepare func(seed uint64) error
	// setup readies one pass on seed and reports its own set-up time,
	// so a workload whose set-up is too quick to time in one go can
	// report the median of several.
	setup func(seed uint64, tr *trace) (pass, time.Duration, error)
	// golden, when set, checks a default-seed pass against the
	// recorded outputs, naming any difference.
	golden func(o *outcome) string
}

// A pass is one unit of measured work, and owns what setup built.
type pass interface {
	run() (*outcome, error)
	close() error
}

// outcome is what one pass produced and how its checks went.
type outcome struct {
	ops    int // operations and checks attempted
	failed int // operations that failed and checks that did not hold
	// identity summarizes every simulated output of the pass; it must
	// repeat exactly across passes of one seed.
	identity string
	problems []string
}

// fail records a failed check of one operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// trace collects per-layer values during traced passes: samples
// pooled over passes, and values taken once per pass (reported as the
// median over passes). A nil *trace is tracing off, and records
// nothing.
type trace struct {
	samples map[string][]float64
	perPass map[string][]float64
}

func newTrace() *trace {
	return &trace{samples: map[string][]float64{}, perPass: map[string][]float64{}}
}

func (t *trace) sample(name string, v float64) {
	if t != nil {
		t.samples[name] = append(t.samples[name], v)
	}
}

func (t *trace) pass(name string, v float64) {
	if t != nil {
		t.perPass[name] = append(t.perPass[name], v)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traced := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0, -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	meta := map[string]any{"workload": w.name, "seed": *seed, "passes": res.passes,
		"problems": res.problems, "loc": locCensus(".")}
	for k, v := range res.meta {
		meta[k] = v
	}
	metaLine, err := json.Marshal(map[string]any{"perfbench_meta": meta})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res.final)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", metaLine, line)
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// result is the benchmark's output line, plus metadata.
type result struct {
	final    finalLine
	passes   int
	problems []string
	meta     map[string]any
}

type finalLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passTimes are one pass's resource figures.
type passTimes struct {
	setup, wall, cpu time.Duration
	allocBytes       uint64
}

// measure runs w: first one pass on spybox.DefaultSeed checked against
// the recorded outputs (also the warm-up), then timed passes on seeds
// derived from seed until the budget is spent. A traced run alternates
// untraced and traced passes, so it can report its own overhead.
func measure(w *workload, seed uint64, budget time.Duration, traced bool, log io.Writer) (*result, error) {
	res := &result{meta: map[string]any{}}
	var ops, failed int
	note := func(o *outcome, tag string) {
		ops += o.ops
		failed += o.failed
		for _, p := range o.problems {
			res.problems = append(res.problems, tag+": "+p)
		}
	}

	seeds := []uint64{spybox.DefaultSeed}
	for k := 0; k < passSeeds; k++ {
		seeds = append(seeds, passSeed(seed, k))
	}
	if w.prepare != nil {
		for _, s := range seeds {
			if err := w.prepare(s); err != nil {
				return nil, fmt.Errorf("prepare seed %d: %w", s, err)
			}
		}
	}
	golden, _, err := onePass(w, spybox.DefaultSeed, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("golden pass: %w", err)
	}
	if w.golden != nil {
		golden.ops++
		if p := w.golden(golden); p != "" {
			golden.fail("recorded output: %s", p)
		}
	}
	note(golden, "golden")

	var plain, withTrace []passTimes
	var tr *trace
	fd := newFold()
	if traced {
		tr = newTrace()
	}
	identity := map[uint64]string{}
	start := time.Now()
	for i := 0; len(plain)+len(withTrace) < minPasses || time.Since(start) < budget; i++ {
		var t *trace
		if traced && i%2 == 1 {
			t = tr
		}
		s := seeds[1+i%passSeeds]
		o, pt, err := onePass(w, s, t, fd)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		if first, seen := identity[s]; !seen {
			identity[s] = o.identity
		} else {
			o.ops++
			if o.identity != first {
				o.fail("simulated output differs from the first pass on seed %d", s)
			}
		}
		note(o, fmt.Sprintf("pass %d", i))
		if t != nil {
			withTrace = append(withTrace, pt)
		} else {
			plain = append(plain, pt)
		}
		fmt.Fprintf(log, "perfbench: %s pass %d seed=%d traced=%v setup=%.4fs run=%.3fs\n",
			w.name, i, s, t != nil, pt.setup.Seconds(), pt.wall.Seconds())
	}
	res.passes = len(plain) + len(withTrace)
	res.meta["pass_seeds"] = seeds[1:]

	m := map[string]metric{}
	if traced {
		for _, d := range perLayerMetrics {
			m[d.name] = metric{Value: -1, Unit: d.unit}
		}
		for k, v := range summarize(tr) {
			d, ok := perLayerUnits[k]
			if !ok {
				return nil, fmt.Errorf("unlisted per-layer metric %q", k)
			}
			m[k] = metric{Value: v, Unit: d}
		}
		for l, v := range fd.pct() {
			m["self_pct."+l] = metric{Value: v, Unit: "%"}
		}
		m["profile.samples"] = metric{Value: float64(fd.total), Unit: "count"}
		res.meta["profile_other_top"] = fd.otherTop(10)
		res.meta["samples"] = sampleCounts(tr)
		m["trace_overhead_pct"] = metric{
			Value: 100 * (median(wallOf(withTrace))/median(wallOf(plain)) - 1), Unit: "%"}
		m["failed_ratio"] = metric{Value: float64(failed) / float64(ops), Unit: "ratio"}
	} else {
		m["setup_s"] = metric{Value: median(secs(plain, func(p passTimes) time.Duration { return p.setup })), Unit: "s"}
		m["run_s"] = metric{Value: median(wallOf(plain)), Unit: "s"}
		m["cpu_s"] = metric{Value: median(secs(plain, func(p passTimes) time.Duration { return p.cpu })), Unit: "s"}
		var alloc []float64
		for _, p := range plain {
			alloc = append(alloc, float64(p.allocBytes)/(1<<20))
		}
		m["alloc_mb"] = metric{Value: median(alloc), Unit: "MB"}
		m["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
		m["ok_ratio"] = metric{Value: float64(ops-failed) / float64(ops), Unit: "ratio"}
	}
	res.final = finalLine{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: m}
	return res, nil
}

// onePass sets up and runs one pass. With a trace it also folds the
// pass's CPU profile into fd and probes the simulator's set-up costs.
func onePass(w *workload, seed uint64, tr *trace, fd *fold) (*outcome, passTimes, error) {
	var pt passTimes
	runtime.GC()
	p, setup, err := w.setup(seed, tr)
	if err != nil {
		return nil, pt, fmt.Errorf("setup: %w", err)
	}
	pt.setup = setup
	var prof bytes.Buffer
	if tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, pt, errors.Join(err, p.close())
		}
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	o, err := p.run()
	pt.wall = time.Since(t0)
	pt.cpu = cpuTime() - cpu0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	pt.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if tr != nil {
		pprof.StopCPUProfile()
		if err == nil {
			err = fd.add(prof.Bytes())
		}
	}
	if cerr := p.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		return nil, pt, err
	}
	if tr != nil {
		if err := probeSim(seed, tr); err != nil {
			return nil, pt, fmt.Errorf("probe: %w", err)
		}
	}
	return o, pt, nil
}

func wallOf(ps []passTimes) []float64 {
	return secs(ps, func(p passTimes) time.Duration { return p.wall })
}

func secs(ps []passTimes, f func(passTimes) time.Duration) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p).Seconds()
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return -1
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
