package main

import (
	"net/http"
	"strings"
	"sync"
	"time"

	"spybox/pkg/spybox"
	"spybox/pkg/spybox/service"
)

// storeOps are the service.Store operations reported one by one.
var storeOps = []string{"create", "put", "claim", "renew", "release"}

// httpRoutes are the routes whose latency is reported.
var httpRoutes = []string{"submit", "status", "result"}

// svcRecorder collects what the store and handler wrappers see during
// one pass. It is safe for concurrent use.
type svcRecorder struct {
	mu       sync.Mutex
	opMs     map[string][]float64
	routeMs  map[string][]float64
	created  map[spybox.JobID]time.Time
	claimed  map[spybox.JobID]time.Time
	finished map[spybox.JobID]time.Time
}

func newSvcRecorder() *svcRecorder {
	return &svcRecorder{
		opMs: map[string][]float64{}, routeMs: map[string][]float64{},
		created: map[spybox.JobID]time.Time{}, claimed: map[spybox.JobID]time.Time{},
		finished: map[spybox.JobID]time.Time{},
	}
}

// op records one store operation that started at t0; when ev is
// non-nil it also notes, for job id, the first time the operation
// completed.
func (r *svcRecorder) op(name string, t0 time.Time, ev map[spybox.JobID]time.Time, id spybox.JobID) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.opMs[name] = append(r.opMs[name], ms(now.Sub(t0)))
	if ev != nil {
		if _, seen := ev[id]; !seen {
			ev[id] = now
		}
	}
}

func (r *svcRecorder) route(name string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.routeMs[name] = append(r.routeMs[name], ms(d))
}

// flush hands the pass's figures to tr; jobs are the pass's jobs as
// their clients saw them.
func (r *svcRecorder) flush(tr *trace, jobs []jobRun) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ops := 0
	for name, xs := range r.opMs {
		ops += len(xs)
		for _, x := range xs {
			tr.sample("service.store_ms."+name, x)
		}
	}
	tr.pass("service.store_ops", float64(ops))
	for name, xs := range r.routeMs {
		for _, x := range xs {
			tr.sample("service.http_ms."+name, x)
		}
	}
	tr.pass("service.polls_per_job", float64(len(r.routeMs["status"]))/float64(len(jobs)))
	for _, j := range jobs {
		created, claimed, finished := r.created[j.id], r.claimed[j.id], r.finished[j.id]
		if created.IsZero() || claimed.IsZero() || finished.IsZero() {
			continue
		}
		tr.sample("service.queue_ms", ms(claimed.Sub(created)))
		tr.sample("service.exec_ms", ms(finished.Sub(claimed)))
		tr.sample("service.notify_ms", ms(j.sawDone.Sub(finished)))
	}
}

// timedStore is a service.Store that times every call into the store
// it wraps and notes each job's create, first claim and terminal put.
type timedStore struct {
	inner service.Store
	rec   *svcRecorder
}

func (s *timedStore) Put(rec service.Record) error {
	t0 := time.Now()
	err := s.inner.Put(rec)
	var ev map[spybox.JobID]time.Time
	if err == nil && rec.Status.State.Terminal() {
		ev = s.rec.finished
	}
	s.rec.op("put", t0, ev, rec.Status.ID)
	return err
}

func (s *timedStore) Create(rec service.Record) error {
	t0 := time.Now()
	err := s.inner.Create(rec)
	var ev map[spybox.JobID]time.Time
	if err == nil {
		ev = s.rec.created
	}
	s.rec.op("create", t0, ev, rec.Status.ID)
	return err
}

func (s *timedStore) Get(id spybox.JobID) (service.Record, bool, error) {
	t0 := time.Now()
	rec, ok, err := s.inner.Get(id)
	s.rec.op("get", t0, nil, "")
	return rec, ok, err
}

func (s *timedStore) List() ([]service.Record, error) {
	t0 := time.Now()
	recs, err := s.inner.List()
	s.rec.op("list", t0, nil, "")
	return recs, err
}

func (s *timedStore) Delete(id spybox.JobID) error {
	t0 := time.Now()
	err := s.inner.Delete(id)
	s.rec.op("delete", t0, nil, "")
	return err
}

func (s *timedStore) Counts() (service.Counts, error) {
	t0 := time.Now()
	c, err := s.inner.Counts()
	s.rec.op("counts", t0, nil, "")
	return c, err
}

func (s *timedStore) Claim(owner string, ttl time.Duration) (service.Record, bool, error) {
	t0 := time.Now()
	rec, ok, err := s.inner.Claim(owner, ttl)
	var ev map[spybox.JobID]time.Time
	if err == nil && ok {
		ev = s.rec.claimed
	}
	s.rec.op("claim", t0, ev, rec.Status.ID)
	return rec, ok, err
}

func (s *timedStore) Renew(id spybox.JobID, owner string, ttl time.Duration) error {
	t0 := time.Now()
	err := s.inner.Renew(id, owner, ttl)
	s.rec.op("renew", t0, nil, "")
	return err
}

func (s *timedStore) Release(id spybox.JobID, owner string) error {
	t0 := time.Now()
	err := s.inner.Release(id, owner)
	s.rec.op("release", t0, nil, "")
	return err
}

// timedHandler times each request the wrapped handler serves, by
// route.
type timedHandler struct {
	inner http.Handler
	rec   *svcRecorder
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	h.rec.route(routeOf(r.Method, r.URL.Path), time.Since(t0))
}

// routeOf names the /v1 route a request addresses.
func routeOf(method, path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/jobs")
	switch {
	case ok && rest == "" && method == http.MethodPost:
		return "submit"
	case ok && strings.HasPrefix(rest, "/") && strings.HasSuffix(rest, "/result"):
		return "result"
	case ok && strings.HasPrefix(rest, "/") && !strings.Contains(rest[1:], "/"):
		return "status"
	case path == "/v1/stats":
		return "stats"
	}
	return "other"
}
