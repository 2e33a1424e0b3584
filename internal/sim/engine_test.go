package sim

import (
	"runtime"
	"testing"
	"time"

	"spybox/internal/arch"
)

// idleCoros counts the engine's pooled, finished coroutines.
func idleCoros(e *engine) int {
	n := 0
	for c := e.idle; c != nil; c = c.nextIdle {
		n++
	}
	return n
}

// TestDroppedMachinesReleaseCoroutines checks that a machine's pooled
// coroutines, each parked on its own goroutine, are stopped once the
// machine is unreachable.
func TestDroppedMachinesReleaseCoroutines(t *testing.T) {
	const machines, workers = 50, 3
	runtime.GC()
	base := runtime.NumGoroutine()
	ms := make([]*Machine, machines)
	for i := range ms {
		m := quiet(uint64(i))
		for j := 0; j < workers; j++ {
			if _, err := m.Spawn(0, "w", 0, func(w *Worker) {
				w.TouchCG(arch.MakePA(0, uint64(0x10000+j*arch.CacheLineSize)))
			}); err != nil {
				t.Fatal(err)
			}
		}
		m.Run()
		ms[i] = m
	}
	if n := runtime.NumGoroutine(); n < base+machines*workers {
		t.Fatalf("%d goroutines with %d machines live, want at least %d", n, machines, base+machines*workers)
	}
	runtime.KeepAlive(ms)
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after dropping %d machines, baseline %d", n, machines, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSpawnRunReusesCoroutine pins the coroutine pool: once a machine
// has run a worker, further Spawn+Run pairs, before and after Reset,
// reuse its coroutine rather than building a new one with iter.Pull.
func TestSpawnRunReusesCoroutine(t *testing.T) {
	m := quiet(1)
	spawnRun := func() {
		if _, err := m.Spawn(0, "w", 0, func(w *Worker) {
			w.TouchCG(arch.MakePA(0, 0x10000))
		}); err != nil {
			t.Fatal(err)
		}
		m.Run()
	}
	spawnRun()
	for _, phase := range []string{"warm", "reset"} {
		if phase == "reset" {
			m.Reset(2)
		}
		// The Worker, its block reservation, and Spawn's body wrapper.
		const want = 3
		if got := testing.AllocsPerRun(50, spawnRun); got > want {
			t.Errorf("%s: Spawn+Run allocates %v times, want at most %d", phase, got, want)
		}
		if n := idleCoros(m.eng); n != 1 {
			t.Errorf("%s: %d idle coroutines after serial runs, want 1", phase, n)
		}
	}
}

// TestWorkerPanicReachesRun checks that a panic in a worker body
// unwinds out of Machine.Run on the caller's goroutine, where it can
// be recovered.
func TestWorkerPanicReachesRun(t *testing.T) {
	m := quiet(3)
	if _, err := m.Spawn(0, "bystander", 0, func(w *Worker) {
		for i := 0; i < 4; i++ {
			w.TouchCG(arch.MakePA(0, 0x20000))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Spawn(0, "faulty", 0, func(w *Worker) {
		w.TouchCG(arch.MakePA(0, 0x10000))
		panic("kernel fault")
	}); err != nil {
		t.Fatal(err)
	}
	got := func() (p any) {
		defer func() { p = recover() }()
		m.Run()
		return nil
	}()
	if got != "kernel fault" {
		t.Fatalf("Run recovered %v, want the worker's panic value", got)
	}
}
