package jobd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// api.go is the HTTP/JSON surface of the daemon:
//
//	POST   /jobs                 submit a Spec; 201 {"id": "job-0001"}
//	GET    /jobs                 list job statuses
//	GET    /jobs/{id}            one job's status
//	GET    /jobs/{id}/metrics    NDJSON stream of Samples until terminal
//	GET    /jobs/{id}/trace      Chrome trace_event JSON performance timeline
//	GET    /jobs/{id}/schedule   replayable audit log of applied events
//	GET    /jobs/{id}/result     final lossless checkpoint (done jobs)
//	DELETE /jobs/{id}            cancel (running jobs stop at the next step)
//	POST   /arrays               submit an ArraySpec; expands into child jobs
//	GET    /arrays               list array statuses
//	GET    /arrays/{id}          one array's aggregated status
//	GET    /arrays/{id}/results  per-child params + metrics + result paths
//	DELETE /arrays/{id}          cancel every non-terminal child
//	GET    /classes              per-class worker caps and live load
//	GET    /healthz              liveness + degraded-store state (503 when degraded)
//	GET    /metrics              daemon-wide counters, Prometheus text format

// MaxRequestBody caps the request body the API reads (submitted specs are
// small JSON documents; anything near this limit is abuse or a mistake).
// Oversized bodies get 413.
const MaxRequestBody = 8 << 20

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/metrics", s.handleMetrics)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /jobs/{id}/schedule", s.handleSchedule)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /arrays", s.handleSubmitArray)
	mux.HandleFunc("GET /arrays", s.handleListArrays)
	mux.HandleFunc("GET /arrays/{id}", s.handleArrayStatus)
	mux.HandleFunc("GET /arrays/{id}/results", s.handleArrayResults)
	mux.HandleFunc("DELETE /arrays/{id}", s.handleCancelArray)
	mux.HandleFunc("GET /classes", s.handleClasses)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleDaemonMetrics)
	return http.MaxBytesHandler(mux, MaxRequestBody)
}

// Error codes of the structured error body, shared by the daemon and the
// federation gateway (which adds its tenant-facing ones).
const (
	CodeBadRequest = "bad_request"
	CodeTooLarge   = "too_large"
	CodeNotFound   = "not_found"
	CodeConflict   = "conflict"
	CodeInternal   = "internal"
	// CodeDraining marks a submission refused because the daemon is
	// shutting down (503).
	CodeDraining = "draining"
)

// APIError is the uniform structured error body of every rejection, from
// the daemon and the gateway alike.
type APIError struct {
	// Error is the human-readable message.
	Error string `json:"error"`
	// Code is the stable machine-readable rejection reason.
	Code string `json:"code"`
}

// WriteJSON emits v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError emits the structured error body.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteJSON(w, status, APIError{Error: fmt.Sprintf(format, args...), Code: code})
}

// DecodeBody strictly decodes a JSON request body into v (unknown fields
// are errors). A failure comes with the rejection to answer with: 413
// too_large for a body the MaxBytesHandler truncated, 400 bad_request
// otherwise.
func DecodeBody(r *http.Request, v any) (status int, code string, err error) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err = dec.Decode(v); err == nil {
		return http.StatusOK, "", nil
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge, CodeTooLarge, err
	}
	return http.StatusBadRequest, CodeBadRequest, err
}

// writeSubmitError answers a rejected Submit/SubmitArray: 503 while
// draining, 400 for everything the validation refused.
func writeSubmitError(w http.ResponseWriter, err error) {
	status, code := http.StatusBadRequest, CodeBadRequest
	if IsDraining(err) {
		status, code = http.StatusServiceUnavailable, CodeDraining
	}
	WriteError(w, status, code, "%v", err)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if status, code, err := DecodeBody(r, &spec); err != nil {
		WriteError(w, status, code, "bad job spec: %v", err)
		return
	}
	j, err := s.Submit(spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	WriteJSON(w, http.StatusCreated, j.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.List()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	WriteJSON(w, http.StatusOK, out)
}

// jobFor resolves the {id} path value or writes a 404.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, CodeNotFound, "no job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		WriteJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)

	ch, cancel := j.subscribe()
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case sample, open := <-ch:
			if !open {
				return
			}
			// The stream outlives the server's WriteTimeout by design;
			// extend the deadline per sample so only a genuinely stuck
			// client gets cut off (not supported on all writers — ignore).
			_ = rc.SetWriteDeadline(time.Now().Add(30 * time.Second))
			if err := enc.Encode(sample); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

func (s *Server) handleClasses(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.ClassUsage())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	code := http.StatusOK
	if h.Degraded {
		// 503 keeps dumb probes honest: the daemon serves, but results are
		// at risk until the store recovers.
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, h)
}

func (s *Server) handleDaemonMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.metrics.Scrape(w, s.publishMetrics) // a failed write is a scraper that went away
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	blob, err := s.scheduleBytes(j)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(blob)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	if !s.hasResult(j) {
		WriteError(w, http.StatusConflict, CodeConflict, "job %s is %s; result exists only for done jobs",
			j.ID, j.State())
		return
	}
	final, err := s.resultBytes(j)
	if err != nil {
		// A torn or corrupted stored result is an error, never served.
		WriteError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(final)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	st, _ := s.Cancel(j.ID)
	WriteJSON(w, http.StatusAccepted, map[string]any{"id": j.ID, "state": st})
}

func (s *Server) handleSubmitArray(w http.ResponseWriter, r *http.Request) {
	var as ArraySpec
	if status, code, err := DecodeBody(r, &as); err != nil {
		WriteError(w, status, code, "bad array spec: %v", err)
		return
	}
	arr, err := s.SubmitArray(as)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	WriteJSON(w, http.StatusCreated, s.ArrayStatus(arr))
}

func (s *Server) handleListArrays(w http.ResponseWriter, r *http.Request) {
	arrays := s.ListArrays()
	out := make([]ArrayStatus, 0, len(arrays))
	for _, a := range arrays {
		out = append(out, s.ArrayStatus(a))
	}
	WriteJSON(w, http.StatusOK, out)
}

// arrayFor resolves the {id} path value or writes a 404.
func (s *Server) arrayFor(w http.ResponseWriter, r *http.Request) (*Array, bool) {
	id := r.PathValue("id")
	a, ok := s.GetArray(id)
	if !ok {
		WriteError(w, http.StatusNotFound, CodeNotFound, "no array %q", id)
		return nil, false
	}
	return a, true
}

func (s *Server) handleArrayStatus(w http.ResponseWriter, r *http.Request) {
	if a, ok := s.arrayFor(w, r); ok {
		WriteJSON(w, http.StatusOK, s.ArrayStatus(a))
	}
}

func (s *Server) handleArrayResults(w http.ResponseWriter, r *http.Request) {
	if a, ok := s.arrayFor(w, r); ok {
		WriteJSON(w, http.StatusOK, s.ArrayResults(a))
	}
}

func (s *Server) handleCancelArray(w http.ResponseWriter, r *http.Request) {
	a, ok := s.arrayFor(w, r)
	if !ok {
		return
	}
	st, _ := s.CancelArray(a.ID)
	WriteJSON(w, http.StatusAccepted, st)
}
