package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spybox/pkg/spybox"
)

// newTestServer boots a drained-at-exit service behind httptest and
// returns its client.
func newTestServer(t *testing.T, opts Options) (*Service, *Client) {
	t.Helper()
	svc := newTestService(t, opts)
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	return svc, NewClient(ts.URL)
}

func TestHTTPEndToEnd(t *testing.T) {
	t.Parallel()
	_, cli := newTestServer(t, Options{Workers: 2})

	// The registry rides the wire intact.
	infos, err := cli.Experiments()
	if err != nil {
		t.Fatal(err)
	}
	if want := spybox.Experiments(); len(infos) != len(want) || infos[0].ID != want[0].ID {
		t.Fatalf("experiments over HTTP: %d entries", len(infos))
	}

	id, err := cli.Submit(smallSpec("fig4"))
	if err != nil {
		t.Fatal(err)
	}
	status, err := cli.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != spybox.JobDone || status.Done != 1 {
		t.Fatalf("status over HTTP: %+v", status)
	}
	results, err := cli.Result(id)
	if err != nil || len(results) != 1 || results[0].ID != "fig4" {
		t.Fatalf("Result over HTTP: %d results, %v", len(results), err)
	}

	// The served document is byte-identical to a direct Session.Run's
	// encoding — and the duplicate, answered from cache, matches it.
	doc, err := cli.ResultDocument(id)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := spybox.Open(spybox.Config{Scale: spybox.Small, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sess.Run(context.Background(), "fig4")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, encode(t, direct)) {
		t.Error("served document differs from direct Session.Run encoding")
	}
	id2, err := cli.Submit(smallSpec("fig4"))
	if err != nil {
		t.Fatal(err)
	}
	status2, err := cli.Wait(context.Background(), id2)
	if err != nil {
		t.Fatal(err)
	}
	if status2.CacheHits != 1 {
		t.Errorf("duplicate not served from cache: %+v", status2)
	}
	doc2, err := cli.ResultDocument(id2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, doc2) {
		t.Error("cached document differs from simulated one")
	}
	st, err := cli.Stats()
	if err != nil || st.CacheHits != 1 || st.Done != 2 {
		t.Errorf("Stats over HTTP: %+v, %v", st, err)
	}
	jobs, err := cli.Jobs()
	if err != nil || len(jobs) != 2 || jobs[0].ID != id {
		t.Errorf("Jobs over HTTP: %+v, %v", jobs, err)
	}
}

// TestHTTPConcurrentSubmits is the acceptance scenario end to end:
// 8 clients submit seeded experiments to one server at once and every
// result document matches a direct Session.Run byte for byte.
func TestHTTPConcurrentSubmits(t *testing.T) {
	t.Parallel()
	_, cli := newTestServer(t, Options{Workers: 4})
	const n = 8
	docs := make([][]byte, n)
	seeds := make([]uint64, n)
	errc := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		seeds[i] = uint64(7000 + i%4) // four distinct seeds, two submitters each
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := smallSpec("fig4")
			spec.Seed = seeds[i]
			id, err := cli.Submit(spec)
			if err != nil {
				errc <- err
				return
			}
			if st, err := cli.Wait(context.Background(), id); err != nil || st.State != spybox.JobDone {
				errc <- fmt.Errorf("job %s: %+v, %v", id, st, err)
				return
			}
			docs[i], err = cli.ResultDocument(id)
			if err != nil {
				errc <- err
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		sess, err := spybox.Open(spybox.Config{Seed: seeds[i], Scale: spybox.Small, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sess.Run(context.Background(), "fig4")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(docs[i], encode(t, direct)) {
			t.Errorf("submitter %d (seed %d): served document differs from direct run", i, seeds[i])
		}
	}
}

func TestHTTPSSEProgress(t *testing.T) {
	t.Parallel()
	_, cli := newTestServer(t, Options{Workers: 1})
	id, err := cli.Submit(smallSpec("fig9"))
	if err != nil {
		t.Fatal(err)
	}
	var msgs []EventMsg
	status, err := cli.Events(context.Background(), id, func(m EventMsg) { msgs = append(msgs, m) })
	if err != nil {
		t.Fatal(err)
	}
	if status.State != spybox.JobDone {
		t.Fatalf("terminal SSE status: %+v", status)
	}
	if len(msgs) == 0 {
		t.Fatal("no progress messages on the SSE stream")
	}
	for _, m := range msgs {
		if m.Job != string(id) || m.Experiment != "fig9" {
			t.Fatalf("stray message on %s's stream: %+v", id, m)
		}
	}
	// A finished job's stream still closes with the terminal status.
	late, err := cli.Events(context.Background(), id, nil)
	if err != nil || late.State != spybox.JobDone {
		t.Errorf("late SSE join: %+v, %v", late, err)
	}
}

func TestHTTPCancelKeepsPartialResults(t *testing.T) {
	t.Parallel()
	_, cli := newTestServer(t, Options{Workers: 1})
	id, err := cli.Submit(smallSpec("fig4", "fig9"))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "first experiment done", func() bool {
		st, err := cli.Job(id)
		return err == nil && (st.Done >= 1 || st.State.Terminal())
	})
	if err := cli.Cancel(id); err != nil {
		t.Fatal(err)
	}
	status, err := cli.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != spybox.JobCancelled || !strings.Contains(status.Error, "interrupted") {
		t.Fatalf("cancelled-over-HTTP status: %+v", status)
	}
	results, err := cli.Result(id)
	if err != nil || len(results) < 1 || results[0].ID != "fig4" {
		t.Errorf("partial results over HTTP: %d, %v", len(results), err)
	}
}

func TestHTTPErrors(t *testing.T) {
	t.Parallel()
	_, cli := newTestServer(t, Options{Workers: 1})

	if _, err := cli.Job("job-404"); !errors.Is(err, spybox.ErrNoJob) {
		t.Errorf("unknown job over HTTP: %v", err)
	}
	if err := cli.Delete("job-404"); !errors.Is(err, spybox.ErrNoJob) {
		t.Errorf("delete unknown job: %v", err)
	}
	if _, err := cli.Submit(smallSpec("bogus")); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("bad spec over HTTP: %v", err)
	}
	// Bodies over the 1 MiB cap are refused whole, on both POST routes.
	huge := `{"client":"` + strings.Repeat("x", 2<<20) + `"}`
	for _, path := range []string{"/v1/jobs", "/v1/jobs:batch"} {
		resp, err := http.Post(cli.base+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized body to %s: %d, want 413", path, resp.StatusCode)
		}
	}

	// A live job's result endpoint says "not yet", not "not found".
	id, err := cli.Submit(smallSpec("fig9"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Result(id); err == nil || errors.Is(err, spybox.ErrNoJob) {
		t.Errorf("early result fetch: %v", err)
	}
	if _, err := cli.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if err := cli.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Job(id); !errors.Is(err, spybox.ErrNoJob) {
		t.Errorf("deleted job still served: %v", err)
	}
}

func TestHTTPRoutingRejects(t *testing.T) {
	t.Parallel()
	svc := newTestService(t, Options{Workers: 1})
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	check := func(method, path string, wantCode int) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Errorf("%s %s = %d, want %d", method, path, resp.StatusCode, wantCode)
		}
		if wantCode >= 400 {
			var e errorJSON
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Errorf("%s %s: error body missing (%v)", method, path, err)
			}
		}
	}
	check(http.MethodGet, "/v1/nope", http.StatusNotFound)
	check(http.MethodGet, "/nope", http.StatusNotFound)
	check(http.MethodGet, "/jobs", http.StatusNotFound) // the version prefix is mandatory
	check(http.MethodGet, "/stats", http.StatusNotFound)
	check(http.MethodDelete, "/v1/experiments", http.StatusMethodNotAllowed)
	check(http.MethodPut, "/v1/jobs", http.StatusMethodNotAllowed)
	check(http.MethodPost, "/v1/jobs/job-1/result", http.StatusMethodNotAllowed)
	check(http.MethodGet, "/v1/jobs/job-1/frobnicate", http.StatusNotFound)

	// Unknown spec fields are a client bug, rejected loudly.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiments":["fig4"],"bogus_field":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field accepted: %d", resp.StatusCode)
	}
}

// TestClientWaitBackoffBounded: Wait returns promptly once the job
// finishes even from the longest backoff step.
func TestClientWaitDeadline(t *testing.T) {
	t.Parallel()
	_, cli := newTestServer(t, Options{Workers: 1})
	id, err := cli.Submit(smallSpec("fig9"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := cli.Wait(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("bounded Wait over HTTP: %v", err)
	}
	status, err := cli.Wait(context.Background(), id)
	if err != nil || status.State != spybox.JobDone {
		t.Errorf("unbounded Wait after deadline: %+v, %v", status, err)
	}
}
