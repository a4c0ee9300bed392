package scheduler

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"

	"hourglass/internal/admission"
	"hourglass/internal/obs"
)

// Handler returns the daemon's control plane:
//
//	POST   /jobs              submit a JobSpec, returns its JobStatus
//	GET    /jobs              list all jobs
//	GET    /jobs/{id}         one job's status
//	DELETE /jobs/{id}         remove a job
//	GET    /jobs/{id}/history the job's run records
//	GET    /admission         admission gate state (404 when disabled)
//	GET    /healthz           liveness probe
//	GET    /metrics           Prometheus text exposition
//	GET    /debug/trace       recent trace events (JSONL), newest last
//	GET    /debug/pprof/*     standard pprof profiles
//
// With the admission gate enabled, POST /jobs answers 201 for an
// admitted job, 202 for one parked in the wait queue (queuePos in the
// body), 422 for an infeasible deadline (feasibility gap in the
// body), and 429 when both the pool and the queue are full.
//
// JSON replies are compact, one value and a newline (`jq .` indents).
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", c.handleSubmit)
	mux.HandleFunc("GET /jobs", c.handleList)
	mux.HandleFunc("GET /jobs/{id}", c.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", c.handleDelete)
	mux.HandleFunc("GET /jobs/{id}/history", c.handleHistory)
	mux.HandleFunc("GET /admission", c.handleAdmission)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /debug/trace", c.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON answers with v encoded as compact JSON and a newline.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (c *Controller) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := c.Submit(spec)
	if err != nil {
		var inf *admission.InfeasibleError
		switch {
		case errors.As(err, &inf):
			writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
				"error":           inf.Error(),
				"gapSeconds":      inf.GapSeconds(),
				"deadlineSeconds": inf.DeadlineSeconds,
				"requiredSeconds": inf.RequiredSeconds,
			})
		case errors.Is(err, admission.ErrQueueFull):
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrJobExists):
			writeError(w, http.StatusConflict, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	code := http.StatusCreated
	if st.Queued {
		code = http.StatusAccepted
	}
	writeJSON(w, code, st)
}

func (c *Controller) handleAdmission(w http.ResponseWriter, _ *http.Request) {
	view, ok := c.AdmissionView()
	if !ok {
		http.Error(w, "admission gate is not enabled", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (c *Controller) handleList(w http.ResponseWriter, _ *http.Request) {
	body, err := c.listJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// handleGet answers a done job with the bytes GET /jobs lists it with.
func (c *Controller) handleGet(w http.ResponseWriter, r *http.Request) {
	body, ok, err := c.getJSON(r.PathValue("id"))
	switch {
	case !ok:
		http.NotFound(w, r)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(append(body[:len(body):len(body)], '\n'))
	}
}

func (c *Controller) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !c.Delete(r.PathValue("id")) {
		http.NotFound(w, r)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Controller) handleHistory(w http.ResponseWriter, r *http.Request) {
	hist, ok := c.History(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	if hist == nil {
		hist = []RunRecord{}
	}
	writeJSON(w, http.StatusOK, hist)
}

func (c *Controller) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	jobs, active := len(c.jobs), c.active
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"jobs":   jobs,
		"active": active,
		"now":    c.clock.Now(),
	})
}

func (c *Controller) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// The retrier keeps its own atomics; reconcile them into the
	// registry at scrape time so the counters stay monotonic.
	attempts, retried := c.retry.Stats()
	c.metrics.Add(MetricStoreAttempts, float64(attempts)-c.metrics.Value(MetricStoreAttempts))
	c.metrics.Add(MetricStoreRetries, float64(retried)-c.metrics.Value(MetricStoreRetries))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = c.metrics.WriteTo(w)
}

// handleTrace dumps the recent trace ring as JSONL. It requires the
// controller's sink to expose Recent() — obs.Tracer does; a plain
// streaming sink (or no sink) answers 404.
func (c *Controller) handleTrace(w http.ResponseWriter, r *http.Request) {
	ring, ok := c.sink.(interface{ Recent() []obs.Event })
	if !ok {
		http.Error(w, "tracing is not enabled with a ring sink", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	_ = obs.WriteJSONL(w, ring.Recent())
}
