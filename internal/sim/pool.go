// Machine pooling: trial runners burn most of their time building
// fresh boxes (a DGX-2's L2 arrays alone are hundreds of thousands of
// way slots), yet every machine built from the same resolved config
// differs only by seed — which Reset rewinds in place. A MachinePool
// hands out reset machines from free lists keyed by that config,
// turning the per-trial cost from "allocate a box" into "memclr a box".
package sim

import "sync"

// MachinePool recycles machines across trials. Get returns a machine
// reset to the requested seed, reusing a free one whose resolved
// config matches; Recycle returns every machine Get has handed out
// since the last Recycle. A leased machine is never handed out again
// until Recycle, so two live machines never alias state.
//
// The pool is safe for concurrent use, but Recycle reclaims every
// lease at once, so it is only safe when no goroutine still uses a
// machine from the pool — the runner's one-pool-per-worker shape.
type MachinePool struct {
	mu     sync.Mutex
	free   map[config][]*Machine
	leased []*Machine
	hits   uint64
	misses uint64
}

// NewMachinePool returns an empty pool.
func NewMachinePool() *MachinePool {
	return &MachinePool{free: make(map[config][]*Machine)}
}

// Get returns a machine built (or reset) from opts. A nil pool falls
// through to NewMachine.
func (p *MachinePool) Get(opts Options) (*Machine, error) {
	if p == nil {
		return NewMachine(opts)
	}
	cfg, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if ms := p.free[cfg]; len(ms) > 0 {
		m := ms[len(ms)-1]
		p.free[cfg] = ms[:len(ms)-1]
		p.leased = append(p.leased, m)
		p.hits++
		p.mu.Unlock()
		m.Reset(opts.Seed)
		return m, nil
	}
	p.misses++
	p.mu.Unlock()
	m, err := newMachine(cfg, opts.Seed)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.leased = append(p.leased, m)
	p.mu.Unlock()
	return m, nil
}

// Recycle returns every leased machine to the free list of its own
// config — the between-trials sweep for callers that don't track
// individual machines (a trial may build several and drop them on the
// floor).
func (p *MachinePool) Recycle() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.leased {
		p.free[m.cfg] = append(p.free[m.cfg], m)
	}
	p.leased = p.leased[:0]
}

// Stats reports how many Gets were served from the pool versus by
// building a new machine.
func (p *MachinePool) Stats() (hits, misses uint64) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}
