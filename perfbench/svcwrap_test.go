package main

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"spybox/pkg/spybox"
	"spybox/pkg/spybox/service"
)

func TestRouteOf(t *testing.T) {
	for _, c := range []struct{ method, path, want string }{
		{"POST", "/v1/jobs", "submit"},
		{"GET", "/v1/jobs", "other"},
		{"GET", "/v1/jobs/job-3", "status"},
		{"GET", "/v1/jobs/job-3/result", "result"},
		{"GET", "/v1/jobs/job-3/events", "other"},
		{"GET", "/v1/stats", "stats"},
		{"GET", "/v1/experiments", "other"},
	} {
		if got := routeOf(c.method, c.path); got != c.want {
			t.Errorf("routeOf(%s %s) = %q, want %q", c.method, c.path, got, c.want)
		}
	}
}

// serve runs a service over store behind handler wrap on a test
// server, closing both when the test ends.
func serve(t *testing.T, store service.Store, wrap func(*service.Service) *httptest.Server) *service.Client {
	t.Helper()
	svc, err := service.New(service.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ts := wrap(svc)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Close(ctx); err != nil {
			t.Error(err)
		}
	})
	return service.NewClient(ts.URL)
}

func runJob(t *testing.T, cli *service.Client, spec spybox.JobSpec) (spybox.JobStatus, []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	id, err := cli.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cli.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := cli.ResultDocument(id)
	if err != nil {
		t.Fatal(err)
	}
	return st, doc
}

// TestWrappedServiceServesSameDocuments checks that the store and
// handler wrappers change nothing a client sees, and that they record
// the operations the jobs went through.
func TestWrappedServiceServesSameDocuments(t *testing.T) {
	rec := newSvcRecorder()
	wrapped := serve(t, &timedStore{inner: service.NewMemStore(), rec: rec}, func(s *service.Service) *httptest.Server {
		return httptest.NewServer(&timedHandler{inner: service.NewHandler(s), rec: rec})
	})
	plain := serve(t, service.NewMemStore(), func(s *service.Service) *httptest.Server {
		return httptest.NewServer(service.NewHandler(s))
	})

	var jobs []jobRun
	for _, seed := range []uint64{11, 11, 12} { // the repeat is a cache hit
		spec := jobSpec(seed)
		ws, wdoc := runJob(t, wrapped, spec)
		ps, pdoc := runJob(t, plain, spec)
		if !bytes.Equal(wdoc, pdoc) {
			t.Errorf("seed %d: wrapped service served a different document", seed)
		}
		if ws.State != ps.State || ws.CacheHits != ps.CacheHits {
			t.Errorf("seed %d: wrapped status %+v, plain %+v", seed, ws, ps)
		}
		jobs = append(jobs, jobRun{id: ws.ID, status: ws, sawDone: time.Now()})
	}

	rec.mu.Lock() // idle workers keep claiming
	for _, op := range []string{"create", "claim", "put", "get"} {
		if len(rec.opMs[op]) == 0 {
			t.Errorf("no %s store operations recorded", op)
		}
	}
	for _, r := range []string{"submit", "status", "result"} {
		if n := len(rec.routeMs[r]); n < len(jobs) {
			t.Errorf("%d %s requests recorded, want >= %d", n, r, len(jobs))
		}
	}
	rec.mu.Unlock()
	tr := newTrace()
	rec.flush(tr, jobs)
	for _, k := range []string{"service.queue_ms", "service.exec_ms", "service.notify_ms"} {
		if n := len(tr.samples[k]); n != len(jobs) {
			t.Errorf("%s has %d samples, want one per job (%d)", k, n, len(jobs))
		}
	}
	if got := summarize(tr)["service.polls_per_job"]; got < 1 {
		t.Errorf("polls_per_job = %v, want >= 1", got)
	}
}

// TestTimedStorePassesErrorsThrough checks that the wrapper returns the
// wrapped store's errors unchanged.
func TestTimedStorePassesErrorsThrough(t *testing.T) {
	s := &timedStore{inner: service.NewMemStore(), rec: newSvcRecorder()}
	rec := service.Record{Status: spybox.JobStatus{ID: "job-1", Spec: jobSpec(1), State: spybox.JobQueued}}
	if err := s.Create(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(rec); !errors.Is(err, service.ErrExists) {
		t.Errorf("second Create: %v, want ErrExists", err)
	}
	if err := s.Renew("job-9", "me", time.Second); !errors.Is(err, spybox.ErrNoJob) && !errors.Is(err, service.ErrNotOwner) {
		t.Errorf("Renew of an unknown job: %v", err)
	}
	if len(s.rec.created) != 1 {
		t.Errorf("%d creations noted, want 1 (the failed one must not count)", len(s.rec.created))
	}
}
