// The trial runner: experiments decompose into independent trials
// (one simulated Machine each), the runner fans them out over a
// bounded worker pool, and results are merged in trial order. Because
// every trial's seed is derived only from (run seed, trial index) and
// merging ignores completion order, a run is bit-identical at any
// parallelism level — `-parallel 1` and `-parallel 8` produce the same
// reports, metrics, and artifacts. EXPERIMENTS.md lists which
// experiments are trial-decomposed and at what granularity.
//
// The runner is also where cancellation and progress live: it checks
// Params.Ctx before claiming each trial (so a SIGINT'd run stops at
// the next trial boundary instead of being killed mid-flight) and
// reports per-trial start/finish through Params.Hooks.
package expt

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"spybox/internal/sim"
	"spybox/internal/xrand"
)

// poolingDisabled turns off machine pooling in the runner (trials then
// build every machine fresh). Test hook: the pooled-determinism tests
// flip it to prove pooled and fresh runs are byte-identical — which is
// also why it cannot perturb results: either setting must produce the
// same bytes, and TestPoolingObservablyInvisible pins that.
//
//spylint:allow detrand test hook; pooled and fresh runs are proven byte-identical
var poolingDisabled bool

// newTrialPool returns the machine pool for one trial worker, or nil
// when pooling is disabled.
func newTrialPool() *sim.MachinePool {
	if poolingDisabled {
		return nil
	}
	return sim.NewMachinePool()
}

// Trial identifies one unit of runner work: its index within the
// experiment and the Params the trial body should run with. The
// embedded Params carry the trial's derived seed and always have
// Parallel == 1, so a trial can never recursively fan out.
type Trial struct {
	Index  int
	Params Params
}

// TrialSeed derives the seed for a trial from the run seed: trial i
// gets the ith output of the splitmix64 stream seeded with the run
// seed. Well-mixed, collision-free across indices, and a pure
// function of (seed, trial) — the property that makes parallel and
// serial runs identical.
func TrialSeed(seed uint64, trial int) uint64 {
	return xrand.SplitMix64At(seed, uint64(trial))
}

// parallelism resolves the effective worker count: Params.Parallel
// when positive, otherwise every available core.
func (p Params) parallelism() int {
	if p.Parallel > 0 {
		return p.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// RunTrials executes n independent trials over a worker pool of
// p.parallelism() goroutines and returns the outputs in trial order.
// Each trial receives Params with its TrialSeed-derived seed. On
// failure the error of the lowest-indexed failing trial is returned —
// the same one a serial run would have stopped at. A cancelled
// context wins only when no trial failed; the returned error then
// wraps the context's error.
func RunTrials[T any](p Params, n int, run func(t Trial) (T, error)) ([]T, error) {
	return runPool(p.ctx(), p.Hooks, p.Job, p.parallelism(), n, func(i int, pool *sim.MachinePool) (T, error) {
		tp := p
		tp.Seed = TrialSeed(p.Seed, i)
		tp.Parallel = 1
		tp.Hooks = nil // trials never recursively observe
		tp.pool = pool // machines recycle within this worker
		return run(Trial{Index: i, Params: tp})
	})
}

// OneTrial adapts a monolithic single-shot experiment body to the
// trial API: one inline trial carrying the run's own seed (no
// derivation), so existing single-shot experiments keep their exact
// historical outputs — including their errors, which gain no
// "trial 0" framing because there are no trials to speak of. The
// adapter still honours cancellation (checked before the body runs;
// single-shot bodies are not interruptible mid-flight) and reports
// the body as trial 0 of 1 to the progress hooks.
func OneTrial(body func(Params) (*Result, error)) func(Params) (*Result, error) {
	return func(p Params) (*Result, error) {
		if err := p.ctx().Err(); err != nil {
			return nil, fmt.Errorf("run cancelled: %w", err)
		}
		hooks, job := p.Hooks, p.Job
		p.Hooks = nil
		hooks.start(job, 0, 1)
		r, err := body(p)
		hooks.done(job, 0, 1, err)
		return r, err
	}
}

// runPool is the bounded fan-out behind RunTrials: `workers`
// goroutines claim indices 0..n-1 in order and write results into an
// index-addressed slice, which is what makes the merge step
// order-independent of scheduling. One worker is the same loop on one
// goroutine: it runs trials strictly in order and, after a failure,
// skips the rest. Each worker owns one machine pool,
// passed to run and swept (Recycle) after every trial, so machines
// recycle within a worker but never migrate between goroutines.
func runPool[T any](ctx context.Context, hooks *TrialHooks, job string, workers, n int, run func(i int, pool *sim.MachinePool) (T, error)) ([]T, error) {
	out := make([]T, n)
	if workers > n {
		workers = n
	}
	var (
		next      atomic.Int64
		lowestErr atomic.Int64 // lowest failing index seen so far
		mu        sync.Mutex
		errTrial  = n
		firstErr  error
		cancelled atomic.Int64 // lowest index refused because ctx was done
		wg        sync.WaitGroup
	)
	next.Store(-1)
	lowestErr.Store(int64(n))
	cancelled.Store(int64(n))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := newTrialPool()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				// A done context stops the pool at the next trial
				// boundary: in-flight trials finish (their machines
				// stay consistent), unclaimed trials are abandoned.
				if ctx.Err() != nil {
					for {
						c := cancelled.Load()
						if int64(i) >= c || cancelled.CompareAndSwap(c, int64(i)) {
							break
						}
					}
					return
				}
				// Skip trials above the lowest failure seen so far:
				// their results would be discarded anyway. lowestErr
				// only decreases, so every skipped index stays above
				// the final errTrial — trials at or below it all run,
				// and the lowest-indexed error (the one a serial run
				// stops at) still wins.
				if int64(i) > lowestErr.Load() {
					continue
				}
				hooks.start(job, i, n)
				v, err := run(i, pool)
				pool.Recycle()
				hooks.done(job, i, n, err)
				if err != nil {
					mu.Lock()
					if i < errTrial {
						errTrial, firstErr = i, err
					}
					lowestErr.Store(int64(errTrial))
					mu.Unlock()
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("trial %d: %w", errTrial, firstErr)
	}
	if c := cancelled.Load(); c < int64(n) {
		return nil, fmt.Errorf("run cancelled before trial %d/%d: %w", c, n, ctx.Err())
	}
	return out, nil
}
