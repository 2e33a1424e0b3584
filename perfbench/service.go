package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"spybox/internal/xrand"
	"spybox/pkg/spybox"
	"spybox/pkg/spybox/report"
	"spybox/pkg/spybox/service"
)

const (
	serviceClients       = 2
	serviceJobsPerClient = 40
	serviceExperiment    = "fig4"
	serviceJobTimeout    = time.Minute
)

// serviceRefs holds, per experiment seed, the report/v1 document an
// in-process Session.Run produces: the reference every job's result
// must equal byte for byte.
var serviceRefs = map[uint64]serviceRef{}

type serviceRef struct {
	doc     []byte
	results []*report.Result
}

func init() {
	register(&workload{
		name:    "service",
		prepare: servicePrepare,
		setup:   serviceSetup, // every pass checks its documents against references
	})
}

// hitSeed is the seed of the spec every even job repeats; missSeed
// gives every odd job a seed of its own.
func hitSeed(seed uint64) uint64 { return xrand.SplitMix64At(seed, 0) }

func missSeed(seed uint64, client, job int) uint64 {
	return xrand.SplitMix64At(seed, uint64(1+client*serviceJobsPerClient+job))
}

func jobSpec(seed uint64) spybox.JobSpec {
	return spybox.JobSpec{Experiments: []string{serviceExperiment}, Seed: seed, Scale: "small", Parallel: 1}
}

// servicePrepare computes the reference document of every spec a pass
// on seed submits.
func servicePrepare(seed uint64) error {
	seeds := []uint64{hitSeed(seed)}
	for c := 0; c < serviceClients; c++ {
		for j := 1; j < serviceJobsPerClient; j += 2 {
			seeds = append(seeds, missSeed(seed, c, j))
		}
	}
	for _, s := range seeds {
		if _, ok := serviceRefs[s]; ok {
			continue
		}
		sess, err := spybox.Open(spybox.Config{Seed: s, Scale: spybox.Small, Parallel: 1})
		if err != nil {
			return err
		}
		rs, err := sess.Run(context.Background(), serviceExperiment)
		if err != nil {
			return err
		}
		var doc bytes.Buffer
		if err := report.Encode(&doc, rs...); err != nil {
			return err
		}
		serviceRefs[s] = serviceRef{doc: doc.Bytes(), results: rs}
	}
	return nil
}

type servicePass struct {
	seed    uint64
	dir     string
	store   *service.LogStore
	svc     *service.Service
	srv     *http.Server
	served  chan error
	clients []*service.Client
	rec     *svcRecorder // nil when untraced
	tr      *trace
}

// serviceSetup opens a job store in a fresh temporary directory,
// starts the service behind its HTTP handler on loopback, and waits
// until the listener answers /v1/stats.
func serviceSetup(seed uint64, tr *trace) (pass, time.Duration, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp("", "store-")
	if err != nil {
		return nil, 0, err
	}
	p := &servicePass{seed: seed, dir: dir, tr: tr}
	if err := p.start(); err != nil {
		return nil, 0, errors.Join(err, p.close())
	}
	return p, time.Since(t0), nil
}

func (p *servicePass) start() error {
	st, err := service.OpenLogStore(p.dir)
	if err != nil {
		return err
	}
	p.store = st
	var store service.Store = st
	if p.tr != nil {
		p.rec = newSvcRecorder()
		store = &timedStore{inner: st, rec: p.rec}
	}
	p.svc, err = service.New(service.Options{Store: store})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := service.NewHandler(p.svc)
	if p.rec != nil {
		h = &timedHandler{inner: h, rec: p.rec}
	}
	p.srv = &http.Server{Handler: h}
	p.served = make(chan error, 1)
	go func() { p.served <- p.srv.Serve(ln) }()
	for i := 0; i < serviceClients; i++ {
		p.clients = append(p.clients, service.NewClient(ln.Addr().String()))
	}
	_, err = p.clients[0].Stats()
	return err
}

// jobRun is one job as its client saw it.
type jobRun struct {
	seed    uint64
	hit     bool
	id      spybox.JobID
	status  spybox.JobStatus
	doc     []byte
	latency time.Duration
	sawDone time.Time
	err     error
}

// run submits one job that warms the result cache, then drives a
// closed loop: each client submits a job, waits for it, and fetches
// its result document before submitting the next; jobs alternate
// between the warmed spec (a cache hit) and a fresh seed (a miss).
func (p *servicePass) run() (*outcome, error) {
	o := &outcome{}
	warm := p.job(p.clients[0], hitSeed(p.seed), false)
	runs := make([][]jobRun, serviceClients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range p.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < serviceJobsPerClient; j++ {
				s, hit := missSeed(p.seed, c, j), false
				if j%2 == 0 {
					s, hit = hitSeed(p.seed), true
				}
				runs[c] = append(runs[c], p.job(p.clients[c], s, hit))
			}
		}(c)
	}
	wg.Wait()
	loop := time.Since(t0)

	all := []jobRun{warm}
	for _, rs := range runs {
		all = append(all, rs...)
	}
	id := sha256.New()
	hits := 0
	for _, r := range all {
		if r.err != nil {
			return nil, fmt.Errorf("job on seed %d: %w", r.seed, r.err)
		}
		o.ops++
		if problem := checkJob(r); problem != "" {
			o.fail("%s: %s", r.id, problem)
		}
		if r.hit {
			hits++
		}
		fmt.Fprintf(id, "%d %v %d %x\n", r.seed, r.hit, r.status.CacheHits, sha256.Sum256(r.doc))
	}
	st, err := p.clients[0].Stats()
	if err != nil {
		return nil, err
	}
	o.ops++
	if st.CacheHits != int64(hits) || st.CacheMisses != int64(len(all)-hits) || st.Done != len(all) {
		o.fail("stats: %d done, %d cache hits, %d misses; want %d, %d, %d",
			st.Done, st.CacheHits, st.CacheMisses, len(all), hits, len(all)-hits)
	}
	fmt.Fprintf(id, "%d %d %d\n", st.Done, st.CacheHits, st.CacheMisses)
	o.identity = fmt.Sprintf("%x", id.Sum(nil))

	if tr := p.tr; tr != nil {
		for _, r := range all[1:] {
			tr.sample("service.job_ms", ms(r.latency))
			if r.hit {
				tr.sample("service.hit_ms", ms(r.latency))
			} else {
				tr.sample("service.miss_ms", ms(r.latency))
			}
		}
		tr.pass("service.jobs_per_s", float64(len(all)-1)/loop.Seconds())
		tr.pass("service.cache_hit_ratio", float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses))
		p.rec.flush(tr, all)
		var doc bytes.Buffer
		t := time.Now()
		if err := report.Encode(&doc, serviceRefs[hitSeed(p.seed)].results...); err != nil {
			return nil, err
		}
		tr.pass("report.encode_ms", ms(time.Since(t)))
		tr.pass("report.bytes", float64(doc.Len()))
	}
	return o, nil
}

// job runs one job through the client: Submit, Wait, ResultDocument.
func (p *servicePass) job(cli *service.Client, seed uint64, hit bool) jobRun {
	r := jobRun{seed: seed, hit: hit}
	ctx, cancel := context.WithTimeout(context.Background(), serviceJobTimeout)
	defer cancel()
	t0 := time.Now()
	r.id, r.err = cli.Submit(jobSpec(seed))
	if r.err != nil {
		return r
	}
	r.status, r.err = cli.Wait(ctx, r.id)
	r.sawDone = time.Now()
	if r.err != nil {
		return r
	}
	r.doc, r.err = cli.ResultDocument(r.id)
	r.latency = time.Since(t0)
	return r
}

// checkJob names what is wrong with a finished job, if anything.
func checkJob(r jobRun) string {
	var bad []string
	if r.status.State != spybox.JobDone {
		bad = append(bad, fmt.Sprintf("state %s (%s)", r.status.State, r.status.Error))
	}
	want := 0
	if r.hit {
		want = 1
	}
	if r.status.CacheHits != want {
		bad = append(bad, fmt.Sprintf("cache_hits %d, want %d", r.status.CacheHits, want))
	}
	if !bytes.Equal(r.doc, serviceRefs[r.seed].doc) {
		bad = append(bad, "result document differs from an in-process Session.Run")
	}
	return strings.Join(bad, "; ")
}

func (p *servicePass) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if p.srv != nil {
		errs = append(errs, p.srv.Shutdown(ctx))
		if err := <-p.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if p.svc != nil {
		errs = append(errs, p.svc.Close(ctx))
	}
	if p.store != nil {
		errs = append(errs, p.store.Close())
	}
	errs = append(errs, os.RemoveAll(p.dir))
	return errors.Join(errs...)
}
