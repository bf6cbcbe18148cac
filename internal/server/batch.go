package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/resource"
	"repro/internal/verify"
	"repro/internal/zoo"
)

// A batch is many member jobs admitted in one POST /batches: they share
// a resource pool (node allowance decremented as members finish, one
// wall window for the whole batch), optionally a portfolio scheduling
// policy (the escalation ladder the members without an explicit engine
// run), and a multiplexed NDJSON stream interleaving every member's
// event lines — each labeled with its member id — with batch lifecycle
// lines. The batch-wide drain guarantee mirrors the per-job one: the
// final batch "done" line is appended before the batch's done channel
// closes, so a client reading GET /batches/{id}/events to EOF has seen
// the complete history, member verdicts included.

// Batch states.
const (
	BatchRunning = "running"
	BatchDone    = "done"
)

type batch struct {
	id        string
	name      string
	policy    []verify.Method
	pool      *resource.Pool
	submitted time.Time
	members   []*job

	// ctx parents every member's lifecycle context, so one cancel (the
	// DELETE handler, or batch completion releasing resources) reaches
	// them all.
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu        sync.Mutex
	state     string
	remaining int
	events    []json.RawMessage
	changed   chan struct{}
	done      chan struct{}
}

// batchLine is the NDJSON envelope of batch lifecycle markers.
type batchLine struct {
	Event       string   `json:"event"` // "batch" or "done"
	State       string   `json:"state"`
	Members     int      `json:"members,omitempty"`
	Policy      []string `json:"policy,omitempty"`
	Verified    int      `json:"verified"`
	Violated    int      `json:"violated"`
	Exhausted   int      `json:"exhausted"`
	Errors      int      `json:"errors"`
	PoolLeft    int      `json:"pool_nodes_left,omitempty"`
	Attempts    int      `json:"attempts,omitempty"`
	Escalations int      `json:"escalations,omitempty"`
}

// labelLine splices a member label into a pre-marshaled JSON object
// line: {"x":1} becomes {"member":"j000007","x":1}. Every line in a
// job's buffer is an object the server marshaled itself, so the splice
// is safe; the one defensive case is the empty object.
func labelLine(member string, line json.RawMessage) json.RawMessage {
	line = bytes.TrimSpace(line)
	if len(line) < 2 || line[0] != '{' {
		return line // not an object; pass through unlabeled
	}
	var b bytes.Buffer
	b.Grow(len(line) + len(member) + 16)
	fmt.Fprintf(&b, "{%q:%q", "member", member)
	if line[1] != '}' {
		b.WriteByte(',')
	}
	b.Write(line[1:])
	return b.Bytes()
}

// append adds one line to the batch's multiplexed buffer and wakes
// subscribers.
func (b *batch) append(line json.RawMessage) {
	b.mu.Lock()
	b.events = append(b.events, line)
	close(b.changed)
	b.changed = make(chan struct{})
	b.mu.Unlock()
}

// snapshotFrom mirrors job.snapshotFrom for the batch buffer.
func (b *batch) snapshotFrom(i int) (lines []json.RawMessage, changed chan struct{}, final bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < len(b.events) {
		lines = b.events[i:len(b.events):len(b.events)]
	}
	return lines, b.changed, b.state == BatchDone
}

// memberDone is installed as every member's onDone hook. The last
// member to finish seals the batch: tally, final "done" line, state
// flip, done-channel close — in that order, so the batch-wide drain
// guarantee (final line before channel close) holds.
func (b *batch) memberDone() {
	b.mu.Lock()
	b.remaining--
	last := b.remaining == 0
	b.mu.Unlock()
	if !last {
		return
	}
	line := batchLine{Event: "done", State: BatchDone, Members: len(b.members)}
	for _, j := range b.members {
		st := j.status()
		line.Attempts += len(st.Attempts)
		for _, a := range st.Attempts {
			if a.Escalated {
				line.Escalations++
			}
		}
		switch {
		case st.State == StateError:
			line.Errors++
		case st.Result == nil:
		case st.Result.Outcome == "verified":
			line.Verified++
		case st.Result.Outcome == "violated":
			line.Violated++
		default:
			line.Exhausted++
		}
	}
	if nodes, _ := b.pool.Remaining(); nodes >= 0 {
		line.PoolLeft = nodes
	}
	data, err := json.Marshal(line)
	b.mu.Lock()
	if err == nil {
		b.events = append(b.events, data)
	}
	b.state = BatchDone
	close(b.changed)
	b.changed = make(chan struct{})
	b.mu.Unlock()
	close(b.done)
	b.cancel(errBatchFinished)
}

var errBatchFinished = fmt.Errorf("icid: batch finished")

// terminal reports whether every member has finished.
func (b *batch) terminal() bool {
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}

// status snapshots the batch's wire status; withMembers controls
// whether the (potentially large) member list rides along.
func (b *batch) status(withMembers bool) BatchStatus {
	st := BatchStatus{
		ID:          b.id,
		Name:        b.name,
		SubmittedAt: b.submitted.UTC().Format(time.RFC3339Nano),
	}
	for _, m := range b.policy {
		st.Policy = append(st.Policy, string(m))
	}
	b.mu.Lock()
	st.State = b.state
	b.mu.Unlock()
	nodes, deadline := b.pool.Remaining()
	if nodes >= 0 || !deadline.IsZero() {
		pw := &PoolWire{NodesLeft: nodes}
		if !deadline.IsZero() {
			pw.DeadlineMS = float64(time.Until(deadline)) / float64(time.Millisecond)
		}
		st.Pool = pw
	}
	for _, j := range b.members {
		js := j.status()
		if withMembers {
			st.Members = append(st.Members, js)
		}
		st.Attempts += len(js.Attempts)
		for _, a := range js.Attempts {
			if a.Escalated {
				st.Escalations++
			}
		}
		switch {
		case js.State == StateError:
			st.Done++
			st.Errors++
		case js.State == StateDone && js.Result != nil:
			st.Done++
			switch js.Result.Outcome {
			case "verified":
				st.Verified++
			case "violated":
				st.Violated++
			default:
				st.Exhausted++
			}
		}
	}
	return st
}

// --- submission --------------------------------------------------------

// escalationCauses are the exhaustion causes that move a portfolio
// member to its next engine: the deterministic budget walls plus
// "other" (algorithmic exhaustion — a non-inductive property, an FD
// configuration error — exactly what a stronger engine may decide).
// Cancellation is deliberate, client- or daemon-initiated, and never
// escalates.
var escalationCauses = map[string]bool{
	"node-limit":    true,
	"deadline":      true,
	"iteration-cap": true,
	"other":         true,
}

// escalates reports whether a finished attempt hands the member to the
// next ladder rung.
func escalates(rw *ResultWire) bool {
	return rw.Outcome == verify.Exhausted.String() && escalationCauses[rw.Cause]
}

// resolvePolicy validates an engine-name ladder against the registry.
func resolvePolicy(names []string) ([]verify.Method, error) {
	ladder := make([]verify.Method, 0, len(names))
	for _, name := range names {
		meth, ok := verify.Resolve(name)
		if !ok {
			return nil, fmt.Errorf("policy engine %q unknown (registered: %v)", name, verify.Registered())
		}
		ladder = append(ladder, meth)
	}
	return ladder, nil
}

// mergeBudget fills a member budget spec's zero fields from the batch
// default.
func mergeBudget(member, batch BudgetSpec) BudgetSpec {
	if member.NodeLimit == 0 {
		member.NodeLimit = batch.NodeLimit
	}
	if member.TimeoutMS == 0 {
		member.TimeoutMS = batch.TimeoutMS
	}
	if member.MaxIterations == 0 {
		member.MaxIterations = batch.MaxIterations
	}
	return member
}

// mergeOptions fills a member options spec's zero fields from the
// batch default.
func mergeOptions(member, batch OptionsSpec) OptionsSpec {
	if member.Termination == "" {
		member.Termination = batch.Termination
	}
	if member.GrowThreshold == 0 {
		member.GrowThreshold = batch.GrowThreshold
	}
	if member.GCEvery == 0 {
		member.GCEvery = batch.GCEvery
	}
	member.WantTrace = member.WantTrace || batch.WantTrace
	return member
}

// expandEntry turns one batch entry into its member SubmitRequests: a
// grid reference becomes one member per benchmark size of the zoo
// entry, anything else passes through unchanged.
func expandEntry(idx int, e BatchEntry) ([]SubmitRequest, error) {
	if e.Wait {
		return nil, fmt.Errorf("jobs[%d]: \"wait\" is not valid inside a batch (follow /batches/{id}/events instead)", idx)
	}
	if e.Grid == "" {
		return []SubmitRequest{e.SubmitRequest}, nil
	}
	if e.Model != "" || e.Builtin != "" {
		return nil, fmt.Errorf("jobs[%d]: \"grid\" is mutually exclusive with \"model\"/\"builtin\"", idx)
	}
	ze, ok := zoo.Get(e.Grid)
	if !ok {
		return nil, fmt.Errorf("jobs[%d]: unknown grid entry %q (builtins: %s)", idx, e.Grid, strings.Join(Builtins(), ", "))
	}
	sizes := ze.Sizes
	if len(sizes) == 0 {
		sizes = []zoo.Size{{}}
	}
	out := make([]SubmitRequest, 0, len(sizes))
	for _, size := range sizes {
		req := e.SubmitRequest
		req.Builtin = e.Grid
		req.Params = map[string]int(size)
		if req.Name == "" {
			req.Name = e.Grid + gridSizeLabel(size)
		}
		out = append(out, req)
	}
	return out, nil
}

// gridSizeLabel renders a size map deterministically for member names.
func gridSizeLabel(s zoo.Size) string {
	if len(s) == 0 {
		return ""
	}
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, s[k])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// handleBatchSubmit is POST /batches: validate every member fully,
// then admit the whole batch atomically — all members get queue slots
// or the submission is rejected 503 with nothing registered and no
// metric moved (the queue-full rollback contract, batch-wide).
func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.accepting.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting jobs")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var breq BatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&breq); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(breq.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no jobs")
		return
	}
	policy, err := resolvePolicy(breq.Policy)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if breq.Pool.MaxIterations != 0 {
		writeError(w, http.StatusBadRequest, "pool.max_iterations is not meaningful batch-wide (set it per member or in \"budget\")")
		return
	}
	if breq.Pool.NodeLimit < 0 || breq.Pool.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, "pool bounds must be >= 0 (zero = unbounded)")
		return
	}

	// Expand grid references, then validate and normalize every member
	// exactly like a single POST /jobs — any failure rejects the whole
	// batch before anything is registered.
	var reqs []SubmitRequest
	for i, entry := range breq.Jobs {
		expanded, err := expandEntry(i, entry)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		reqs = append(reqs, expanded...)
	}

	// Normalize every member up front: validation errors reject the
	// batch before routing, and the canonical identities feed both the
	// batch routing key and the members' cache keys.
	identities := make([]string, len(reqs))
	for i := range reqs {
		reqs[i], identities[i], err = normalizeModel(reqs[i])
		if err != nil {
			writeError(w, http.StatusBadRequest, "jobs[%d]: %v", i, err)
			return
		}
	}
	// A batch routes as one unit, keyed on all member identities — its
	// members share one resource pool, which cannot split across nodes.
	if s.routeRemote(w, r, batchKey(identities), body, "/batches") {
		return
	}

	sliceSet := breq.Slice != (BudgetSpec{})
	var sliceBudget resource.Budget
	if sliceSet {
		if sliceBudget, err = breq.Slice.budget(s.cfg); err != nil {
			writeError(w, http.StatusBadRequest, "slice: %v", err)
			return
		}
	}

	b := &batch{
		name:      breq.Name,
		policy:    policy,
		pool:      resource.NewPool(breq.Pool.NodeLimit, time.Duration(breq.Pool.TimeoutMS)*time.Millisecond),
		submitted: time.Now(),
		state:     BatchRunning,
		changed:   make(chan struct{}),
		done:      make(chan struct{}),
	}
	b.ctx, b.cancel = context.WithCancelCause(s.baseCtx)

	jobs := make([]*job, 0, len(reqs))
	for i := range reqs {
		req := reqs[i]
		var ladder []verify.Method
		switch {
		case req.Engine != "":
			meth, ok := verify.Resolve(req.Engine)
			if !ok {
				writeError(w, http.StatusBadRequest, "jobs[%d]: unknown engine %q (registered: %v)", i, req.Engine, verify.Registered())
				return
			}
			req.Engine = string(meth)
			ladder = []verify.Method{meth}
		case len(policy) > 0:
			ladder = policy
		default:
			req.Engine = string(verify.XICI)
			ladder = []verify.Method{verify.XICI}
		}
		opt, err := mergeOptions(req.Options, breq.Options).options()
		if err != nil {
			writeError(w, http.StatusBadRequest, "jobs[%d]: %v", i, err)
			return
		}
		budget, err := mergeBudget(req.Budget, breq.Budget).budget(s.cfg)
		if err != nil {
			writeError(w, http.StatusBadRequest, "jobs[%d]: %v", i, err)
			return
		}
		j := newJob(req, ladder, b.ctx)
		j.identity = identities[i]
		j.opt = opt
		j.budget = budget
		j.slice = budget
		if sliceSet {
			j.slice = sliceBudget
		}
		j.batch = b
		j.onDone = b.memberDone
		jobs = append(jobs, j)
	}
	b.members = jobs
	b.remaining = len(jobs)

	// Atomic admission. Holding the write side of submitMu excludes
	// every other submitter (and the drain's close), so checking free
	// queue capacity and then sending are one indivisible step — the
	// workers only ever drain the channel, so the reserved slots cannot
	// disappear between the check and the sends.
	s.submitMu.Lock()
	if !s.accepting.Load() {
		s.submitMu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting jobs")
		return
	}
	if free := cap(s.tasks) - len(s.tasks); free < len(jobs) {
		s.submitMu.Unlock()
		writeError(w, http.StatusServiceUnavailable,
			"queue has %d free slots, batch needs %d", cap(s.tasks)-len(s.tasks), len(jobs))
		return
	}
	s.mu.Lock()
	s.bseq++
	b.id = fmt.Sprintf("b%05d", s.bseq)
	for _, j := range jobs {
		s.seq++
		j.id = fmt.Sprintf("j%06d", s.seq)
		member := j.id
		j.tee = func(line json.RawMessage) { b.append(labelLine(member, line)) }
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	s.batches[b.id] = b
	s.border = append(s.border, b.id)
	s.evictHistoryLocked()
	s.evictBatchHistoryLocked()
	s.mu.Unlock()

	// The lifecycle line goes in before any member reaches a worker, so
	// the multiplexed stream always opens with the batch line.
	policyNames := make([]string, len(policy))
	for i, m := range policy {
		policyNames[i] = string(m)
	}
	if line, err := json.Marshal(batchLine{Event: "batch", State: BatchRunning, Members: len(jobs), Policy: policyNames}); err == nil {
		b.append(line)
	}

	s.met.batches.Add(1)
	s.met.submitted.Add(int64(len(jobs)))
	s.met.queued.Add(int64(len(jobs)))
	for _, j := range jobs {
		s.tasks <- j
	}
	s.submitMu.Unlock()

	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.id
	}
	writeJSON(w, http.StatusAccepted, BatchResponse{ID: b.id, Jobs: ids, Node: s.nodeName()})
}

// evictBatchHistoryLocked drops the oldest terminal batches past
// JobHistory. Members referenced by a retained batch stay reachable
// through it even after their own job-history eviction.
func (s *Server) evictBatchHistoryLocked() {
	excess := len(s.border) - s.cfg.JobHistory
	if excess <= 0 {
		return
	}
	kept := s.border[:0]
	for _, id := range s.border {
		b := s.batches[id]
		if excess > 0 && b != nil && b.terminal() {
			delete(s.batches, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.border = kept
}

func (s *Server) lookupBatch(id string) *batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches[id]
}

// handleBatchList is GET /batches: every retained batch's summary
// status (members omitted), id-ordered.
func (s *Server) handleBatchList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	batches := make([]*batch, 0, len(s.batches))
	for _, b := range s.batches {
		batches = append(batches, b)
	}
	s.mu.Unlock()
	sort.Slice(batches, func(i, k int) bool { return batches[i].id < batches[k].id })
	out := make([]BatchStatus, len(batches))
	for i, b := range batches {
		out[i] = b.status(false)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleBatchStatus is GET /batches/{id}: the batch with full member
// statuses, attempt records included.
func (s *Server) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	b := s.lookupBatch(r.PathValue("id"))
	if b == nil {
		writeError(w, http.StatusNotFound, "no such batch %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, b.status(true))
}

// handleBatchCancel is DELETE /batches/{id}: cancel every member's
// lifecycle context in one stroke. Queued members finalize as canceled
// when a worker pops them; running members abort at their next budget
// check. The batch seals itself once the last member lands.
func (s *Server) handleBatchCancel(w http.ResponseWriter, r *http.Request) {
	b := s.lookupBatch(r.PathValue("id"))
	if b == nil {
		writeError(w, http.StatusNotFound, "no such batch %q", r.PathValue("id"))
		return
	}
	b.cancel(fmt.Errorf("icid: batch canceled via DELETE /batches/%s", b.id))
	writeJSON(w, http.StatusOK, b.status(false))
}

// handleBatchEvents is GET /batches/{id}/events: the multiplexed
// NDJSON stream — member lines labeled with their job id, batch
// lifecycle lines bracketing them, terminated by the batch "done"
// line. ?follow=0 dumps the buffer so far and closes.
func (s *Server) handleBatchEvents(w http.ResponseWriter, r *http.Request) {
	b := s.lookupBatch(r.PathValue("id"))
	if b == nil {
		writeError(w, http.StatusNotFound, "no such batch %q", r.PathValue("id"))
		return
	}
	follow := r.URL.Query().Get("follow") != "0"
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	i := 0
	for {
		lines, changed, final := b.snapshotFrom(i)
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
