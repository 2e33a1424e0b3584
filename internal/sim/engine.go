//go:build go1.23

// Package sim contains the conservative discrete-event engine that
// executes simulated GPU kernels and the Machine that ties devices,
// interconnect, and physical memory together.
//
// Each kernel body runs as a coroutine (iter.Pull). Every
// shared-hardware interaction (an L2/HBM access, a warp-parallel
// probe, a streaming touch) is one *event*: the worker parks in an
// indexed min-heap keyed by (clock, id) — see sched.go — and switches
// back to the engine loop, which pops the worker with the smallest
// local clock (ties broken by worker ID), services its request, and
// resumes it. The loop resumes one worker at a time, so the simulation
// is serialized without a lock and deterministic: identical seeds give
// identical cycle-for-cycle runs, including all timing jitter.
//
// This mirrors how the attacks see the machine: each thread block has
// its own clock() domain, while the L2s, HBM and NVLink are globally
// shared and ordered.
package sim

import (
	"iter"
	"runtime"
)

// engine serializes workers by simulated time. Only the goroutine in
// Machine.Run, and the coroutines it resumes one at a time, touch it.
type engine struct {
	parked  parkedHeap
	idle    *coro // finished coroutines, reused by register
	nextID  int
	eventNo uint64
}

// coro is a pooled coroutine that runs worker bodies one after
// another. It yields true when its worker parks and false when the
// body returns. An idle coroutine refers to neither its engine nor its
// last worker, so it cannot keep a dropped machine reachable.
type coro struct {
	next     func() (parked, ok bool)
	stop     func()
	park     func(parked bool) bool
	w        *Worker       // worker to start on the next resume
	body     func(*Worker) // its body; run clears both
	nextIdle *coro
}

func newEngine() *engine {
	e := &engine{}
	// A dropped machine's idle coroutines would otherwise leak their
	// goroutines.
	runtime.SetFinalizer(e, (*engine).stopIdle)
	return e
}

func (e *engine) stopIdle() {
	for c := e.idle; c != nil; c = c.nextIdle {
		c.stop()
	}
}

func newCoro() *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(func(park func(bool) bool) {
		c.park = park
		for {
			c.run()
			if !park(false) {
				return
			}
		}
	})
	return c
}

// run executes one worker body. It is its own frame so that an idle
// coroutine's stack holds no reference to the finished worker.
func (c *coro) run() {
	w, body := c.w, c.body
	c.w, c.body = nil, nil
	body(w)
	w.co = nil
}

// reset rewinds the engine to its freshly constructed state so worker
// IDs and event numbers replay identically on a reused machine. It is
// only legal between runs, when no workers exist.
func (e *engine) reset() {
	if e.parked.len() != 0 {
		panic("sim: engine reset with live workers")
	}
	e.nextID = 0
	e.eventNo = 0
}

// register gives w an ID and a coroutine and parks it with a nil
// request: a fresh worker must not touch shared state before the
// engine schedules it, so its body starts only once that no-op event
// (counted like any other) is popped.
func (e *engine) register(w *Worker, body func(*Worker)) {
	w.id = e.nextID
	e.nextID++
	w.heapIdx = noHeapIdx
	c := e.idle
	if c != nil {
		e.idle = c.nextIdle
		c.nextIdle = nil
	} else {
		c = newCoro()
	}
	c.w, c.body = w, body
	w.co = c
	// Every registered worker may be parked simultaneously (a launch
	// storm parks all blocks at clock 0); size the heap for that now so
	// the event loop never grows it.
	e.parked.grow(e.parked.len() + 1)
	e.parked.push(w)
}

// yield parks the worker with a pending request and switches back to
// the engine loop, which resumes it once the request is serviced.
//
//spylint:hotpath
func (w *Worker) yield(req *request) {
	w.pending = req
	w.eng.parked.push(w)
	w.co.park(true) //spylint:allow hotalloc coroutine switch into iter.Pull's yield, which allocates nothing once the coroutine exists
}

// runAll drives the engine until no workers remain. It must be called
// from the host goroutine after workers are registered. A panic in a
// worker body surfaces here, on the caller's goroutine.
//
//spylint:hotpath
func (e *engine) runAll(service func(*Worker, *request)) {
	for {
		w := e.parked.popMin()
		if w == nil {
			return
		}
		req := w.pending
		w.pending = nil
		e.eventNo++
		// Service before resuming, so shared hardware state changes one
		// event at a time, in clock order.
		if req != nil {
			service(w, req) //spylint:allow hotalloc the only service implementation is Machine.service, itself vetted as a //spylint:hotpath root
		}
		c := w.co
		if parked, _ := c.next(); !parked { //spylint:allow hotalloc coroutine switch into iter.Pull's next, which allocates nothing once the coroutine exists
			c.nextIdle = e.idle
			e.idle = c
		}
	}
}
