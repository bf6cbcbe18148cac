// Package server implements icid, the networked verification service:
// an HTTP/JSON API that accepts verification jobs (textual models in
// the internal/lang wire format or named built-ins), queues them on a
// bounded queue, schedules them across a par.Serve worker pool — one
// fresh BDD manager per job, the job's resource.Budget joined to the
// daemon lifecycle and (for synchronous submissions) the client's
// request context — and streams per-job progress as NDJSON by adapting
// the verify.Observer to a network sink. Completed deterministic
// results live in a content-addressed cache keyed by the canonical
// model text, engine, options, and budget.
//
// Endpoints: POST /jobs, GET /jobs, GET /jobs/{id}, DELETE /jobs/{id},
// GET /jobs/{id}/events (NDJSON stream), POST /batches, GET /batches,
// GET /batches/{id}, DELETE /batches/{id}, GET /batches/{id}/events
// (multiplexed NDJSON stream), GET /models, GET /healthz, GET /metrics.
//
// A batch admits many members atomically under one shared resource
// pool and an optional portfolio scheduling policy: an engine ladder
// run cheapest-first, each non-final rung under a small slice budget,
// escalating on the budget-exhaustion causes and never on
// cancellation.
// See docs/api.md for the wire reference and DESIGN.md §11 for the
// architecture.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/resource"
	"repro/internal/store"
	"repro/internal/verify"
	"repro/internal/zoo"
)

// Config sizes the daemon. The zero value is usable: GOMAXPROCS
// workers, a 64-deep queue, a 128-entry result cache, unbounded
// budgets.
type Config struct {
	// Workers is the scheduler width (<= 0 selects GOMAXPROCS). Each
	// worker runs one job at a time on its own BDD manager.
	Workers int

	// QueueCap bounds the number of jobs waiting to run; submissions
	// past it are rejected with 503 (0 = 64).
	QueueCap int

	// CacheCap bounds the result cache entries (0 = 128, < 0 disables).
	CacheCap int

	// JobHistory bounds retained terminal jobs; the oldest are evicted
	// once exceeded so the daemon's memory is bounded under sustained
	// traffic (0 = 1024).
	JobHistory int

	// DefaultBudget fills budget fields a submission leaves at zero.
	DefaultBudget resource.Budget

	// MaxNodeLimit and MaxTimeout clamp every job's budget server-side;
	// 0 means no clamp. When set, a request with no (or an unlimited)
	// bound gets the maximum instead of running unbounded.
	MaxNodeLimit int
	MaxTimeout   time.Duration

	// Store is the persistent result tier beneath the in-memory cache
	// (nil = memory only). The server reads and writes it during
	// operation; the caller owns Open and the final Close/flush.
	Store *store.Store

	// Cluster enables consistent-hash job routing (nil = standalone).
	// The caller owns Start/Stop of its health-probe loop.
	Cluster *cluster.Cluster

	// Version is the build identity /healthz reports ("" = "dev").
	Version string
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 64
	}
	if cfg.CacheCap == 0 {
		cfg.CacheCap = 128
	}
	if cfg.JobHistory == 0 {
		cfg.JobHistory = 1024
	}
	if cfg.Version == "" {
		cfg.Version = "dev"
	}
	return cfg
}

// Server is the verification service. Create with New, expose with
// Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	met     *metrics
	store   *store.Store     // persistent result tier, nil = memory only
	cluster *cluster.Cluster // consistent-hash routing, nil = standalone
	forward *http.Client     // proxies forwarded submissions (request-context bounded)

	baseCtx    context.Context         // parent of every job lifecycle context
	baseCancel context.CancelCauseFunc // fired when the drain deadline passes

	// submitMu serializes channel sends against the drain's close: a
	// submission holds the read side while it checks accepting and
	// enqueues, Shutdown holds the write side while it flips accepting
	// and closes the channel, so a send on a closed channel is
	// impossible.
	submitMu  sync.RWMutex
	accepting atomic.Bool
	tasks     chan *job
	closeOnce sync.Once
	schedDone chan struct{}

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // submission order, for history eviction
	seq     int
	batches map[string]*batch
	border  []string // batch submission order, for history eviction
	bseq    int
	cache   *resultCache
	started time.Time
}

// New creates a Server and starts its scheduler workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        cfg,
		met:        newMetrics(),
		store:      cfg.Store,
		cluster:    cfg.Cluster,
		forward:    &http.Client{},
		baseCtx:    ctx,
		baseCancel: cancel,
		tasks:      make(chan *job, cfg.QueueCap),
		schedDone:  make(chan struct{}),
		jobs:       make(map[string]*job),
		batches:    make(map[string]*batch),
		cache:      newResultCache(cfg.CacheCap),
		started:    time.Now(),
	}
	s.accepting.Store(true)
	if s.store != nil {
		st := s.store
		s.met.top.Set("store", expvar.Func(func() any { return st.Stats() }))
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /batches", s.handleBatchSubmit)
	mux.HandleFunc("GET /batches", s.handleBatchList)
	mux.HandleFunc("GET /batches/{id}", s.handleBatchStatus)
	mux.HandleFunc("DELETE /batches/{id}", s.handleBatchCancel)
	mux.HandleFunc("GET /batches/{id}/events", s.handleBatchEvents)
	mux.HandleFunc("GET /models", s.handleModels)
	mux.HandleFunc("GET /cluster", s.handleCluster)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.met.handler)
	s.mux = mux

	s.startScheduler()
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the service: stop accepting submissions, let the
// workers finish the queued and in-flight jobs, and — once ctx expires
// — budget-cancel whatever is still running and wait for it to
// finalize. Every job reaches a terminal state with its final event
// line appended before Shutdown returns; the error reports whether the
// drain needed the cancellation deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.submitMu.Lock()
	s.accepting.Store(false)
	s.closeOnce.Do(func() { close(s.tasks) })
	s.submitMu.Unlock()
	select {
	case <-s.schedDone:
		return nil
	case <-ctx.Done():
		// Deadline passed: cancel every job's lifecycle context. Runs
		// abort on their next budget check and finalize as exhausted /
		// canceled, so the workers still drain — now promptly.
		s.baseCancel(fmt.Errorf("icid: drain deadline passed: %w", context.Cause(ctx)))
		<-s.schedDone
		return ctx.Err()
	}
}

// Draining reports whether the server has stopped accepting jobs.
func (s *Server) Draining() bool { return !s.accepting.Load() }

// Workers returns the scheduler width after defaulting.
func (s *Server) Workers() int { return s.cfg.Workers }

// --- handlers ----------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit is POST /jobs: validate, canonicalize, route to the
// owning cluster node (or execute locally), consult the two-tier
// result cache, then enqueue (async) or enqueue-and-wait (wait mode).
// The raw body is retained so a routed submission forwards verbatim —
// the peer re-normalizes the identical bytes and must agree on the
// routing key.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.accepting.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting jobs")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}

	req, identity, err := normalizeModel(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Routing happens after validation (a peer never sees a request this
	// node would have rejected) and is keyed on the canonical model
	// identity alone, so every engine/budget variant of one model lands
	// on the same node's caches.
	if s.routeRemote(w, r, identity, body, "/jobs") {
		return
	}
	if req.Engine == "" {
		req.Engine = string(verify.XICI)
	}
	meth, ok := verify.Resolve(req.Engine)
	if !ok {
		writeError(w, http.StatusBadRequest, "unknown engine %q (registered: %v)", req.Engine, verify.Registered())
		return
	}
	req.Engine = string(meth)
	opt, err := req.Options.options()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	budget, err := req.Budget.budget(s.cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The cache key is over the *resolved* forms — canonical engine
	// name, parsed options, default-filled and clamped budget — so wire
	// variants that would do identical work share one entry.
	key := cacheKey(identity, req.Engine, opt, budget)
	j := newJob(req, []verify.Method{meth}, s.baseCtx)
	j.identity = identity
	j.opt = opt
	j.budget = budget
	if req.Wait {
		j.reqCtx = r.Context()
	}

	s.mu.Lock()
	s.seq++
	j.id = fmt.Sprintf("j%06d", s.seq)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictHistoryLocked()
	s.mu.Unlock()

	s.met.submitted.Add(1)

	if entry := s.lookupResult(key); entry != nil {
		s.met.completedJob(req.Engine, entry.result)
		j.finishCached(entry.result, entry.events)
		st := j.status()
		writeJSON(w, http.StatusOK, SubmitResponse{ID: j.id, Cached: true, Status: &st, Node: s.nodeName()})
		return
	}

	s.met.queued.Add(1)
	enqueued := false
	s.submitMu.RLock()
	if s.accepting.Load() {
		select {
		case s.tasks <- j:
			enqueued = true
		default:
		}
	}
	s.submitMu.RUnlock()
	if !enqueued {
		// Queue full: the job was never scheduled; take it back.
		s.met.queued.Add(-1)
		s.met.submitted.Add(-1)
		s.mu.Lock()
		delete(s.jobs, j.id)
		if n := len(s.order); n > 0 && s.order[n-1] == j.id {
			s.order = s.order[:n-1]
		}
		s.mu.Unlock()
		j.cancel(fmt.Errorf("icid: queue full"))
		writeError(w, http.StatusServiceUnavailable, "queue full (%d jobs waiting) or draining", s.cfg.QueueCap)
		return
	}

	if !req.Wait {
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: j.id, Node: s.nodeName()})
		return
	}
	// Wait mode: the response is the final status. The job's budget is
	// joined to this request's context, so a disconnect here cancels
	// the run server-side; waiting on j.done alone is enough.
	<-j.done
	st := j.status()
	writeJSON(w, http.StatusOK, SubmitResponse{ID: j.id, Status: &st, Node: s.nodeName()})
}

// evictHistoryLocked drops the oldest terminal jobs past JobHistory.
func (s *Server) evictHistoryLocked() {
	excess := len(s.order) - s.cfg.JobHistory
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j != nil && j.terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// handleList is GET /jobs: every retained job's status, id-ordered.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].id < jobs[k].id })
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStatus is GET /jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleCancel is DELETE /jobs/{id}: cancel the job's lifecycle
// context. A queued job finalizes as canceled when a worker pops it; a
// running job aborts at its next budget check.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	j.cancel(fmt.Errorf("icid: canceled via DELETE /jobs/%s", j.id))
	writeJSON(w, http.StatusOK, j.status())
}

// handleEvents is GET /jobs/{id}/events: the job's NDJSON event stream.
// By default it follows the live run until the job's terminal line;
// ?follow=0 dumps the buffer so far and closes. The final "done" line
// is appended before the job's done channel closes, so a client that
// reads to EOF has seen the job's complete history.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	follow := r.URL.Query().Get("follow") != "0"
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	i := 0
	for {
		lines, changed, final := j.snapshotFrom(i)
		for _, line := range lines {
			w.Write(line)
			w.Write([]byte("\n"))
		}
		i += len(lines)
		if flusher != nil && len(lines) > 0 {
			flusher.Flush()
		}
		if final || !follow {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleModels is GET /models: the zoo registry — every builtin a
// submission may name, with its parameter defaults and the sizes its
// family is benchmarked at.
func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	names := zoo.Names()
	out := make([]ModelInfo, 0, len(names))
	for _, name := range names {
		e, ok := zoo.Get(name)
		if !ok {
			continue
		}
		sizes := make([]map[string]int, len(e.Sizes))
		for i, sz := range e.Sizes {
			sizes[i] = map[string]int(sz)
		}
		out = append(out, ModelInfo{
			Name:     e.Name,
			Desc:     e.Desc,
			Defaults: map[string]int(e.Defaults),
			Sizes:    sizes,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz is GET /healthz: liveness plus a small amount of
// introspection (drain state, queue depth, registered engines,
// builtin models, build version, persistence and cluster identity).
// The cluster health-probe loop keys off the "status" field: "ok"
// means routable, anything else (including "draining") means peers
// should route around this node.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	retained := len(s.jobs)
	retainedBatches := len(s.batches)
	cached := s.cache.len()
	s.mu.Unlock()
	engines := make([]string, 0)
	for _, m := range verify.Registered() {
		engines = append(engines, string(m))
	}
	doc := map[string]any{
		"status":           map[bool]string{true: "draining", false: "ok"}[s.Draining()],
		"version":          s.cfg.Version,
		"uptime_seconds":   time.Since(s.started).Seconds(),
		"workers":          s.cfg.Workers,
		"queue_capacity":   s.cfg.QueueCap,
		"jobs_retained":    retained,
		"batches_retained": retainedBatches,
		"results_cached":   cached,
		"engines":          engines,
		"builtins":         Builtins(),
	}
	if s.store != nil {
		doc["store_path"] = s.store.Dir()
		doc["store_entries"] = s.store.Len()
	}
	if s.cluster != nil {
		doc["cluster_role"] = "member"
		doc["cluster_self"] = s.cluster.Self()
	} else {
		doc["cluster_role"] = "standalone"
	}
	writeJSON(w, http.StatusOK, doc)
}
