package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"spybox/internal/xrand"
	"spybox/pkg/spybox"
)

// The covert workload's fixed machine: the seeds covertchat uses, so
// discovery and alignment do the same work on every run, and only the
// message comes from the workload seed.
const (
	covertMachineSeed = 1234
	covertTimingSeed  = 5
	covertTrojanSeed  = 11
	covertSpySeed     = 22
	covertPages       = 256
	covertSets        = 4
	covertMsgBytes    = 2048
)

func init() {
	register(&workload{name: "covert", setup: covertSetup, golden: covertGolden})
}

// covertMessage is the seed-derived message a pass transmits.
func covertMessage(seed uint64) []byte {
	rng := xrand.New(seed)
	msg := make([]byte, covertMsgBytes)
	for i := range msg {
		msg[i] = byte(rng.Uint64())
	}
	return msg
}

type covertPass struct {
	m    *spybox.Machine
	prof *spybox.TimingProfile
	msg  []byte
	tr   *trace
}

// covertSetup builds the machine and characterizes its timing: the
// work before a channel can be attempted.
func covertSetup(seed uint64, tr *trace) (pass, time.Duration, error) {
	t0 := time.Now()
	sess, err := spybox.Open(spybox.Config{Seed: covertMachineSeed, Arch: "p100-dgx1"})
	if err != nil {
		return nil, 0, err
	}
	tOpen := time.Now()
	m, err := sess.NewMachine()
	if err != nil {
		return nil, 0, err
	}
	tMachine := time.Now()
	prof, err := spybox.CharacterizeTiming(m, 0, 1, 48, covertTimingSeed)
	if err != nil {
		return nil, 0, err
	}
	tDone := time.Now()
	tr.pass("spybox.open_ms", ms(tOpen.Sub(t0)))
	tr.pass("core.characterize_ms", ms(tDone.Sub(tMachine)))
	return &covertPass{m: m, prof: prof, msg: covertMessage(seed), tr: tr}, tDone.Sub(t0), nil
}

// counters are the machine's device counters summed over its GPUs.
type counters struct {
	l2Hits, l2Misses, l2Evictions uint64
	hbmReads, hbmRowHits          uint64
	nvlinkTx                      uint64
}

func readCounters(m *spybox.Machine) counters {
	var c counters
	for i := 0; i < m.NumGPUs(); i++ {
		d := m.Device(spybox.DeviceID(i))
		h, mi, ev := d.L2().Totals()
		c.l2Hits += h
		c.l2Misses += mi
		c.l2Evictions += ev
		r, rh, _ := d.HBM().Stats()
		c.hbmReads += r
		c.hbmRowHits += rh
	}
	c.nvlinkTx = m.Topology().TotalTransactions()
	return c
}

func (c counters) minus(b counters) counters {
	return counters{
		c.l2Hits - b.l2Hits, c.l2Misses - b.l2Misses, c.l2Evictions - b.l2Evictions,
		c.hbmReads - b.hbmReads, c.hbmRowHits - b.hbmRowHits, c.nvlinkTx - b.nvlinkTx,
	}
}

// covertResult is everything simulated a covert pass produced.
type covertResult struct {
	counters
	bits, bitErrors int
	simulatedMs     float64
	received        []byte
}

func (r covertResult) String() string {
	return fmt.Sprintf("l2 %d/%d/%d hbm %d/%d nvlink %d bits %d errors %d sim %.6fms rx %x",
		r.l2Hits, r.l2Misses, r.l2Evictions, r.hbmReads, r.hbmRowHits, r.nvlinkTx,
		r.bits, r.bitErrors, r.simulatedMs, sha256.Sum256(r.received))
}

// run scripts the Sec. IV channel through the public facade, as
// examples/covertchat does: two attackers discover their eviction
// sets, align covertSets channels across processes, and transmit.
func (p *covertPass) run() (*outcome, error) {
	before := readCounters(p.m)
	t0 := time.Now()
	trojan, err := spybox.NewAttacker(p.m, 0, 0, covertPages, p.prof.Thresholds, covertTrojanSeed)
	if err != nil {
		return nil, err
	}
	spy, err := spybox.NewAttacker(p.m, 1, 0, covertPages, p.prof.Thresholds, covertSpySeed)
	if err != nil {
		return nil, err
	}
	tg, err := trojan.DiscoverPageGroups(trojan.Ways())
	if err != nil {
		return nil, err
	}
	sg, err := spy.DiscoverPageGroups(spy.Ways())
	if err != nil {
		return nil, err
	}
	tDiscover := time.Now()
	pairs, err := spybox.AlignChannels(trojan, spy,
		trojan.AllEvictionSets(tg, trojan.Ways()), spy.AllEvictionSets(sg, spy.Ways()), covertSets)
	if err != nil {
		return nil, err
	}
	tAlign := time.Now()
	ch, err := spybox.NewChannel(trojan, spy, pairs, spybox.DefaultCovertConfig())
	if err != nil {
		return nil, err
	}
	tx, err := ch.Transmit(p.msg)
	if err != nil {
		return nil, err
	}
	tDone := time.Now()

	r := covertResult{
		counters:    readCounters(p.m).minus(before),
		bits:        len(tx.SentBits),
		bitErrors:   tx.BitErrors,
		simulatedMs: 1000 * float64(tx.Duration) / float64(tx.ClockHz),
		received:    tx.ReceivedBits,
	}
	// Two checks: the channel sent the message, and its bit-error count
	// is the number of received bits that differ from the sent ones.
	// Wrong bits themselves are the simulated channel's noise, not a
	// failure of the program; the recorded default-seed pass pins them.
	o := &outcome{identity: r.String(), ops: 2}
	if r.bitErrors > 0 {
		o.problems = append(o.problems, fmt.Sprintf("note: %d of %d bits received wrong", r.bitErrors, r.bits))
	}
	if want := spybox.BitsToBytes(tx.SentBits); !bytes.Equal(want, p.msg) {
		o.fail("sent bits do not encode the message")
	}
	if len(tx.ReceivedBits) != len(tx.SentBits) {
		o.fail("received %d bits, sent %d", len(tx.ReceivedBits), len(tx.SentBits))
	} else if n := countDiff(tx.SentBits, tx.ReceivedBits); n != r.bitErrors {
		o.fail("channel reports %d bit errors, received bits differ in %d", r.bitErrors, n)
	}

	if tr := p.tr; tr != nil {
		accesses := float64(r.l2Hits + r.l2Misses)
		tr.pass("core.discover_ms", ms(tDiscover.Sub(t0)))
		tr.pass("core.align_ms", ms(tAlign.Sub(tDiscover)))
		tr.pass("core.transmit_ms", ms(tDone.Sub(tAlign)))
		tr.pass("core.transmit_us_per_bit", float64(tDone.Sub(tAlign))/float64(time.Microsecond)/float64(r.bits))
		tr.pass("core.bits", float64(r.bits))
		tr.pass("core.bit_errors", float64(r.bitErrors))
		tr.pass("sim.simulated_ms", r.simulatedMs)
		tr.pass("l2cache.accesses", accesses)
		tr.pass("l2cache.misses", float64(r.l2Misses))
		tr.pass("l2cache.evictions", float64(r.l2Evictions))
		tr.pass("l2cache.miss_ratio", float64(r.l2Misses)/accesses)
		tr.pass("l2cache.host_ns_per_access", float64(tDone.Sub(t0))/accesses)
		tr.pass("hbm.reads", float64(r.hbmReads))
		tr.pass("hbm.row_hits", float64(r.hbmRowHits))
		tr.pass("nvlink.transactions", float64(r.nvlinkTx))
	}
	return o, nil
}

func (p *covertPass) close() error { return nil }

func countDiff(a, b []byte) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

func covertGolden(o *outcome) string {
	if o.identity != recordedCovert {
		return fmt.Sprintf("covert outputs %q, recorded %q", o.identity, recordedCovert)
	}
	return ""
}
