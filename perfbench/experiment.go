package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"spybox/pkg/spybox"
	"spybox/pkg/spybox/report"
)

// openRepeats is how many times an experiment pass times spybox.Open,
// which takes microseconds, to report the median as its set-up time.
const openRepeats = 64

func init() {
	register(experimentWorkload("fingerprint", "fig12", 2, func(o *outcome, r *report.Result) {}))
	register(experimentWorkload("modelextract", "table2", 1, func(o *outcome, r *report.Result) {
		o.ops += 2
		if got := r.Metrics["monotone_in_hidden"]; got != 1 {
			o.fail("table2 monotone_in_hidden = %v, want 1", got)
		}
		// At small scale the width is recovered 4/4 on most seeds
		// (the recorded default-seed digest pins 4/4) and 3/4 on a
		// few; 3 is the floor the experiment's own tests claim.
		switch got := r.Metrics["extraction_correct"]; {
		case got < 3:
			o.fail("table2 extraction_correct = %v, want >= 3", got)
		case got < 4:
			o.problems = append(o.problems, fmt.Sprintf("note: table2 extraction_correct = %v of 4", got))
		}
	}))
}

// experimentWorkload runs one registered experiment at small scale on
// the paper's box through spybox.Open and Session.Run, with parallel
// trial workers. claims checks the experiment's own predicates.
func experimentWorkload(name, id string, parallel int, claims func(*outcome, *report.Result)) *workload {
	return &workload{
		name: name,
		setup: func(seed uint64, tr *trace) (pass, time.Duration, error) {
			p := &experimentPass{id: id, claims: claims, tr: tr, parallel: parallel}
			cfg := spybox.Config{Seed: seed, Scale: spybox.Small, Arch: "p100-dgx1", Parallel: parallel}
			if tr != nil {
				cfg.Events = p.event
			}
			times := make([]float64, openRepeats)
			for i := range times {
				t0 := time.Now()
				sess, err := spybox.Open(cfg)
				times[i] = time.Since(t0).Seconds()
				if err != nil {
					return nil, 0, err
				}
				p.sess = sess
			}
			setup := time.Duration(median(times) * float64(time.Second))
			tr.pass("spybox.open_ms", ms(setup))
			return p, setup, nil
		},
		golden: func(o *outcome) string {
			if want := recordedDigest[name]; o.identity != want {
				return fmt.Sprintf("%s report digest %s, recorded %s", id, o.identity, want)
			}
			return ""
		},
	}
}

type experimentPass struct {
	id       string
	parallel int
	sess     *spybox.Session
	claims   func(*outcome, *report.Result)
	tr       *trace
	// events is appended to by Config.Events, which the session calls
	// serialized, and read once Run has returned.
	events []spybox.Event
}

func (p *experimentPass) event(ev spybox.Event) { p.events = append(p.events, ev) }

func (p *experimentPass) run() (*outcome, error) {
	o := &outcome{ops: 1}
	rs, err := p.sess.Run(context.Background(), p.id)
	if err != nil {
		return nil, err
	}
	var doc bytes.Buffer
	t0 := time.Now()
	if err := report.Encode(&doc, rs...); err != nil {
		return nil, err
	}
	p.tr.pass("report.encode_ms", ms(time.Since(t0)))
	p.tr.pass("report.bytes", float64(doc.Len()))
	o.identity = fmt.Sprintf("%x", sha256.Sum256(doc.Bytes()))
	if len(rs) != 1 {
		o.fail("%s returned %d results, want 1", p.id, len(rs))
		return o, nil
	}
	p.claims(o, rs[0])
	if p.tr != nil {
		trialLayer(p.tr, p.events, p.parallel)
	}
	return o, nil
}

func (p *experimentPass) close() error { return nil }

// trialLayer derives the runner's per-layer figures from one run's
// progress events.
func trialLayer(tr *trace, events []spybox.Event, parallel int) {
	var expStart, expDone, lastTrial time.Duration
	starts := map[int]time.Duration{}
	var durs []float64
	var wait float64
	for _, ev := range events {
		switch ev.Kind {
		case spybox.ExperimentStart:
			expStart = ev.Elapsed
		case spybox.ExperimentDone:
			expDone = ev.Elapsed
		case spybox.TrialStart:
			starts[ev.Trial] = ev.Elapsed
			wait += (ev.Elapsed - expStart).Seconds()
		case spybox.TrialDone:
			durs = append(durs, (ev.Elapsed - starts[ev.Trial]).Seconds())
			if ev.Elapsed > lastTrial {
				lastTrial = ev.Elapsed
			}
		}
	}
	busy := sum(durs)
	tr.pass("expt.trials", float64(len(durs)))
	tr.pass("expt.trial_ms_p50", 1000*median(durs))
	tr.pass("expt.trial_ms_max", 1000*maxOf(durs))
	tr.pass("expt.trial_busy_s", busy)
	tr.pass("expt.trial_wait_s", wait)
	tr.pass("expt.tail_s", (expDone - lastTrial).Seconds())
	if phase := (lastTrial - expStart).Seconds(); phase > 0 {
		tr.pass("expt.pool_util", busy/(float64(parallel)*phase))
	}
}
