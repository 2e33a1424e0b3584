// The HTTP face of the service: a hand-routed /v1 API (kept free of
// Go 1.22 mux patterns so the module's 1.21 floor holds) returning
// JSON everywhere, report/v1 documents for results, and server-sent
// events for progress.
//
//	POST   /v1/jobs             submit a JobSpec        -> 202 JobStatus
//	POST   /v1/jobs:batch       submit a BatchSpec      -> 202 BatchStatus
//	GET    /v1/jobs             list jobs               -> 200 [JobStatus]
//	GET    /v1/jobs/{id}        one job                 -> 200 JobStatus
//	DELETE /v1/jobs/{id}        cancel + forget         -> 204
//	POST   /v1/jobs/{id}/cancel cancel, keep the record -> 200 JobStatus
//	GET    /v1/jobs/{id}/result report/v1 document      -> 200 (409 until terminal)
//	GET    /v1/jobs/{id}/events SSE progress stream
//	GET    /v1/batches/{id}     batch census            -> 200 BatchStatus
//	GET    /v1/experiments      registry metadata       -> 200 [ExperimentInfo]
//	GET    /v1/stats            queue + cache counters  -> 200 Stats

package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"spybox/pkg/spybox"
	"spybox/pkg/spybox/report"
)

// EventMsg is the wire form of a progress event, carried in the data
// field of each SSE "progress" message. Elapsed is milliseconds since
// the job's current run began.
type EventMsg struct {
	Job        string  `json:"job,omitempty"`
	Kind       string  `json:"kind"`
	Experiment string  `json:"experiment,omitempty"`
	Title      string  `json:"title,omitempty"`
	Trial      int     `json:"trial"`
	Trials     int     `json:"trials,omitempty"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Error      string  `json:"error,omitempty"`
}

// eventMsg converts a session event to its wire form.
func eventMsg(ev spybox.Event) EventMsg {
	msg := EventMsg{
		Job: string(ev.Job), Kind: ev.Kind.String(),
		Experiment: ev.Experiment, Title: ev.Title,
		Trial: ev.Trial, Trials: ev.Trials,
		ElapsedMS: float64(ev.Elapsed) / float64(time.Millisecond),
	}
	if ev.Err != nil {
		msg.Error = ev.Err.Error()
	}
	return msg
}

// NewHandler wraps the service in its HTTP API.
func NewHandler(svc *Service) http.Handler {
	return &handler{svc: svc}
}

type handler struct {
	svc *Service
}

// errorJSON is the body of every non-2xx response.
type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorJSON{Error: err.Error()})
}

// writeServiceError maps service errors onto status codes: unknown
// jobs are 404, a draining service is 503, everything else 500.
func writeServiceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, spybox.ErrNoJob):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, spybox.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// The version prefix is mandatory — serving the same routes
	// unversioned would let clients grow dependencies a future /v2
	// could not break.
	path, ok := strings.CutPrefix(r.URL.Path, "/v1")
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such resource %q (the API lives under /v1)", r.URL.Path))
		return
	}
	switch {
	case path == "/experiments":
		h.method(w, r, http.MethodGet, func() { writeJSON(w, http.StatusOK, h.svc.Experiments()) })
	case path == "/stats":
		h.method(w, r, http.MethodGet, func() {
			st, err := h.svc.Stats()
			if err != nil {
				writeServiceError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, st)
		})
	case path == "/jobs:batch":
		h.method(w, r, http.MethodPost, func() { h.submitBatch(w, r) })
	case strings.HasPrefix(path, "/batches/"):
		h.method(w, r, http.MethodGet, func() { h.batch(w, path[len("/batches/"):]) })
	case path == "/jobs":
		switch r.Method {
		case http.MethodPost:
			h.submit(w, r)
		case http.MethodGet:
			jobs, err := h.svc.Jobs()
			if err != nil {
				writeServiceError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, jobs)
		default:
			w.Header().Set("Allow", "GET, POST")
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		}
	case strings.HasPrefix(path, "/jobs/"):
		idStr, sub, _ := strings.Cut(path[len("/jobs/"):], "/")
		id := spybox.JobID(idStr)
		switch sub {
		case "":
			h.job(w, r, id)
		case "result":
			h.method(w, r, http.MethodGet, func() { h.result(w, id) })
		case "events":
			h.method(w, r, http.MethodGet, func() { h.events(w, r, id) })
		case "cancel":
			h.method(w, r, http.MethodPost, func() { h.cancel(w, id) })
		default:
			writeError(w, http.StatusNotFound, fmt.Errorf("no such resource %q", r.URL.Path))
		}
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("no such resource %q", r.URL.Path))
	}
}

// method guards a single-method route.
func (h *handler) method(w http.ResponseWriter, r *http.Request, want string, serve func()) {
	if r.Method != want {
		w.Header().Set("Allow", want)
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	serve()
}

// maxBodyBytes caps a POSTed spec; real ones are a few hundred bytes.
const maxBodyBytes = 1 << 20

// decodeBody decodes a POSTed spec into v, answering 413 for a body
// over maxBodyBytes and 400 for anything else it cannot decode.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("bad %s: %w", what, err))
		return false
	}
	return true
}

func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	var spec spybox.JobSpec
	if !decodeBody(w, r, "job spec", &spec) {
		return
	}
	id, err := h.svc.Submit(spec)
	if err != nil {
		if errors.Is(err, spybox.ErrClosed) {
			writeServiceError(w, err)
		} else {
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	status, err := h.svc.Job(id)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+string(id))
	writeJSON(w, http.StatusAccepted, status)
}

func (h *handler) submitBatch(w http.ResponseWriter, r *http.Request) {
	var spec BatchSpec
	if !decodeBody(w, r, "batch spec", &spec) {
		return
	}
	st, err := h.svc.SubmitBatch(spec)
	if err != nil {
		if errors.Is(err, spybox.ErrClosed) {
			writeServiceError(w, err)
		} else {
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	w.Header().Set("Location", "/v1/batches/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (h *handler) batch(w http.ResponseWriter, id string) {
	st, err := h.svc.Batch(id)
	if err != nil {
		if errors.Is(err, ErrNoBatch) {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (h *handler) job(w http.ResponseWriter, r *http.Request, id spybox.JobID) {
	switch r.Method {
	case http.MethodGet:
		status, err := h.svc.Job(id)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, status)
	case http.MethodDelete:
		if err := h.svc.Delete(r.Context(), id); err != nil {
			writeServiceError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

func (h *handler) cancel(w http.ResponseWriter, id spybox.JobID) {
	if err := h.svc.Cancel(id); err != nil {
		writeServiceError(w, err)
		return
	}
	status, err := h.svc.Job(id)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

func (h *handler) result(w http.ResponseWriter, id spybox.JobID) {
	results, err := h.svc.Result(id)
	if err != nil {
		if status, jerr := h.svc.Job(id); jerr == nil && !status.State.Terminal() {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeServiceError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = report.Encode(w, results...)
}

// events streams the job's progress as SSE: one "progress" message
// per session event, then a final "status" message with the terminal
// JobStatus, then the stream closes. Watching a finished job yields
// just the "status" message, so late consumers still get closure.
func (h *handler) events(w http.ResponseWriter, r *http.Request, id spybox.JobID) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("streaming unsupported by this server"))
		return
	}
	ch, err := h.svc.Watch(r.Context(), id)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	send := func(event string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
		flusher.Flush()
	}
	for ev := range ch { // closes when the job finishes or the client goes
		send("progress", eventMsg(ev))
	}
	if status, err := h.svc.Job(id); err == nil {
		send("status", status)
	}
}
