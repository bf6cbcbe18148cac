package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/bdd"
	"repro/internal/lang"
	"repro/internal/models"
	"repro/internal/verify"
	"repro/internal/zoo"
)

func (e *testServer) postBatch(t *testing.T, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(e.ts.URL+"/batches", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

// submitBatch POSTs a batch and returns the accepted response.
func (e *testServer) submitBatch(t *testing.T, breq BatchRequest) BatchResponse {
	t.Helper()
	resp, data := e.postBatch(t, breq)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: %d %s", resp.StatusCode, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatalf("batch response: %v (%s)", err, data)
	}
	return br
}

// waitBatchDone polls a batch until its state is done.
func (e *testServer) waitBatchDone(t *testing.T, id string) BatchStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := e.get(t, "/batches/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %s: %d %s", id, resp.StatusCode, data)
		}
		var st BatchStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == BatchDone {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("batch %s did not finish", id)
	return BatchStatus{}
}

// directProblem rebuilds a zoo member exactly as the server does:
// canonical text through the one construction path.
func directProblem(t *testing.T, m *bdd.Manager, name string, size zoo.Size) verify.Problem {
	t.Helper()
	mo, err := zoo.Build(name, size)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lang.Parse(m, mo.Format(), name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The tentpole acceptance test: a batch of zoo models under the policy
// ["FD","XICI","PDR"] with a tiny slice budget. Non-final rungs exhaust
// under the slice and escalate — every attempt recorded — and each
// member's final verdict is identical to a direct verify.RunContext run
// of the engine that settled it.
func TestBatchPortfolioEscalates(t *testing.T) {
	e := newTestServer(t, Config{Workers: 2, QueueCap: 16})

	type member struct {
		entry BatchEntry
		zooN  string
		size  zoo.Size
	}
	memberSpecs := []member{
		{BatchEntry{SubmitRequest: SubmitRequest{Builtin: "fifo", Size: 3}}, "fifo", zoo.Size{"depth": 3}},
		{BatchEntry{SubmitRequest: SubmitRequest{Builtin: "fsm/door"}}, "fsm/door", zoo.Size{}},
		{BatchEntry{SubmitRequest: SubmitRequest{Builtin: "link", Size: 1, Bug: true}}, "link", zoo.Size{"data-bits": 1, "bug": 1}},
	}
	breq := BatchRequest{
		Name:   "portfolio",
		Policy: []string{"FD", "XICI", "PDR"},
		Slice:  BudgetSpec{NodeLimit: 64},
	}
	for _, ms := range memberSpecs {
		breq.Jobs = append(breq.Jobs, ms.entry)
	}

	br := e.submitBatch(t, breq)
	if len(br.Jobs) != len(memberSpecs) {
		t.Fatalf("batch admitted %d members, want %d", len(br.Jobs), len(memberSpecs))
	}

	bst := e.waitBatchDone(t, br.ID)
	if bst.Done != len(memberSpecs) || bst.Errors != 0 {
		t.Fatalf("batch tally: %+v", bst)
	}
	if bst.Escalations == 0 {
		t.Fatalf("no member escalated despite the 64-node slice: %+v", bst)
	}
	if bst.Attempts <= len(memberSpecs) {
		t.Errorf("attempts = %d, want > %d (escalations imply extra rungs)", bst.Attempts, len(memberSpecs))
	}

	for i, ms := range memberSpecs {
		st := e.waitDone(t, br.Jobs[i])
		if st.State != StateDone || st.Result == nil {
			t.Fatalf("%s: state %q error %q", ms.zooN, st.State, st.Error)
		}
		if st.Batch != br.ID {
			t.Errorf("%s: status.batch = %q, want %q", ms.zooN, st.Batch, br.ID)
		}
		if len(st.Policy) != 3 {
			t.Errorf("%s: status.policy = %v", ms.zooN, st.Policy)
		}
		if len(st.Attempts) == 0 {
			t.Fatalf("%s: no attempt records", ms.zooN)
		}
		// Every non-final attempt escalated out of a slice exhaustion;
		// the final one settled the verdict.
		for k, a := range st.Attempts[:len(st.Attempts)-1] {
			if !a.Escalated || a.Outcome != verify.Exhausted.String() || !escalationCauses[a.Cause] {
				t.Errorf("%s: attempt %d %+v, want an escalated exhaustion", ms.zooN, k, a)
			}
			if a.NodeLimit != 64 {
				t.Errorf("%s: attempt %d ran under node limit %d, want the 64-node slice", ms.zooN, k, a.NodeLimit)
			}
		}
		last := st.Attempts[len(st.Attempts)-1]
		if last.Escalated {
			t.Errorf("%s: final attempt marked escalated: %+v", ms.zooN, last)
		}
		if last.Engine != st.Result.Method || last.Outcome != st.Result.Outcome {
			t.Errorf("%s: final attempt %+v disagrees with result %s/%s",
				ms.zooN, last, st.Result.Method, st.Result.Outcome)
		}

		// The settled verdict must match a direct library run of the
		// same engine on the same problem.
		m := bdd.New()
		p := directProblem(t, m, ms.zooN, ms.size)
		ref := verify.RunContext(context.Background(), p, verify.Method(st.Result.Method), verify.Options{})
		if st.Result.Outcome != ref.Outcome.String() {
			t.Errorf("%s: batch verdict %q (via %s), direct run %q",
				ms.zooN, st.Result.Outcome, st.Result.Method, ref.Outcome)
		}
		if st.Result.Iterations != ref.Iterations {
			t.Errorf("%s: batch iterations %d, direct %d", ms.zooN, st.Result.Iterations, ref.Iterations)
		}
	}

	// The bugged link must have been caught violated by whatever rung
	// settled it.
	if bst.Violated != 1 {
		t.Errorf("batch violated = %d, want 1 (the bugged link)", bst.Violated)
	}
}

// A bounded node pool is shared: the first member drains it, and the
// rest finalize as exhausted through the typed cause taxonomy without
// ever running.
func TestBatchSharedPoolExhausts(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1, QueueCap: 16})
	breq := BatchRequest{
		Pool: BudgetSpec{NodeLimit: 1},
		Jobs: []BatchEntry{
			{SubmitRequest: SubmitRequest{Builtin: "fifo", Size: 3, Engine: "XICI"}},
			{SubmitRequest: SubmitRequest{Builtin: "fifo", Size: 4, Engine: "XICI"}},
			{SubmitRequest: SubmitRequest{Builtin: "fifo", Size: 5, Engine: "XICI"}},
		},
	}
	br := e.submitBatch(t, breq)
	bst := e.waitBatchDone(t, br.ID)
	if bst.Exhausted != 3 || bst.Done != 3 {
		t.Fatalf("pool batch tally: %+v", bst)
	}
	if bst.Pool == nil || bst.Pool.NodesLeft != 0 {
		t.Fatalf("pool not drained: %+v", bst.Pool)
	}

	// The single worker runs members in order: the first actually ran
	// (and overran its 1-node clamp), the later ones found the pool dry.
	first := e.waitDone(t, br.Jobs[0])
	if first.Result == nil || first.Result.Cause != "node-limit" {
		t.Fatalf("first member: %+v", first.Result)
	}
	if strings.Contains(first.Result.Why, "batch pool exhausted") {
		t.Fatalf("first member never ran: %q", first.Result.Why)
	}
	for _, id := range br.Jobs[1:] {
		st := e.waitDone(t, id)
		if st.Result == nil || st.Result.Outcome != verify.Exhausted.String() || st.Result.Cause != "node-limit" {
			t.Fatalf("dry-pool member %s: %+v", id, st.Result)
		}
		if !strings.Contains(st.Result.Why, "batch pool exhausted") {
			t.Errorf("dry-pool member %s: why %q", id, st.Result.Why)
		}
		if len(st.Attempts) != 1 || st.Attempts[0].Iterations != 0 {
			t.Errorf("dry-pool member %s attempts: %+v", id, st.Attempts)
		}
	}
}

// The multiplexed stream interleaves member-labeled event lines with
// batch lifecycle lines and ends — drain guarantee, batch-wide — with
// the batch "done" line. A grid entry expands into its zoo members.
func TestBatchMultiplexedStream(t *testing.T) {
	e := newTestServer(t, Config{Workers: 2, QueueCap: 16})
	br := e.submitBatch(t, BatchRequest{
		Jobs: []BatchEntry{
			{SubmitRequest: SubmitRequest{Builtin: "fifo", Size: 3, Engine: "XICI"}},
			{Grid: "fsm/door"},
		},
	})
	if len(br.Jobs) < 2 {
		t.Fatalf("grid entry did not expand: %v", br.Jobs)
	}

	resp, err := http.Get(e.ts.URL + "/batches/" + br.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2+2*len(br.Jobs) {
		t.Fatalf("stream too short: %d lines", len(lines))
	}
	if lines[0]["event"] != "batch" || lines[0]["state"] != BatchRunning {
		t.Errorf("first line %v, want the batch running marker", lines[0])
	}
	last := lines[len(lines)-1]
	if last["event"] != "done" || last["state"] != BatchDone {
		t.Errorf("last line %v, want the batch done marker", last)
	}
	if int(last["verified"].(float64)) != len(br.Jobs) {
		t.Errorf("done line verified = %v, want %d", last["verified"], len(br.Jobs))
	}

	// Every member contributed labeled lines, including its own "done".
	memberDone := map[string]bool{}
	for _, line := range lines[1 : len(lines)-1] {
		member, _ := line["member"].(string)
		if member == "" {
			t.Fatalf("unlabeled interior line: %v", line)
		}
		if line["event"] == "done" {
			memberDone[member] = true
		}
	}
	for _, id := range br.Jobs {
		if !memberDone[id] {
			t.Errorf("member %s has no labeled done line in the multiplexed stream", id)
		}
	}
}

// Batch admission is all-or-nothing: a batch larger than the queue's
// free capacity is rejected 503 with nothing registered and no metric
// moved, while a batch that fits is admitted afterwards.
func TestBatchQueueFullRollsBack(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	long := SubmitRequest{Model: counterModel(18), Name: "counter", Engine: "Fwd"}
	a := e.submit(t, long)
	// Wait for the worker to pick it up so exactly QueueCap slots remain.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, data := e.get(t, "/jobs/"+a)
		var st JobStatus
		json.Unmarshal(data, &st)
		if st.State == StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	b := e.submit(t, long) // takes one queue slot, one remains

	resp, data := e.postBatch(t, BatchRequest{Jobs: []BatchEntry{
		{SubmitRequest: SubmitRequest{Builtin: "fifo", Size: 3, Engine: "XICI"}},
		{SubmitRequest: SubmitRequest{Builtin: "fifo", Size: 3, Engine: "FD"}},
	}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("oversized batch: %d %s, want 503", resp.StatusCode, data)
	}
	doc := e.metricsDoc(t)
	if got := metricInt(t, doc, "submitted"); got != 2 {
		t.Errorf("submitted = %d after batch rollback, want 2", got)
	}
	if got := metricInt(t, doc, "batches"); got != 0 {
		t.Errorf("batches = %d after rollback, want 0", got)
	}
	if resp, data := e.get(t, "/batches"); resp.StatusCode != http.StatusOK || strings.TrimSpace(string(data)) != "[]" {
		t.Errorf("rolled-back batch is visible: %s", data)
	}

	// A batch that fits the remaining slot is admitted.
	br := e.submitBatch(t, BatchRequest{Jobs: []BatchEntry{
		{SubmitRequest: SubmitRequest{Builtin: "fifo", Size: 3, Engine: "XICI"}},
	}})

	// Unblock the workers and let everything land.
	for _, id := range []string{a, b} {
		req, _ := http.NewRequest("DELETE", e.ts.URL+"/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	e.waitDone(t, a)
	e.waitDone(t, b)
	if bst := e.waitBatchDone(t, br.ID); bst.Verified != 1 {
		t.Errorf("follow-up batch: %+v", bst)
	}
}

// Every malformed batch is rejected whole, before any member is
// registered.
func TestBatchValidation(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"no-jobs", `{"jobs":[]}`},
		{"unknown-policy-engine", `{"policy":["FD","Magic"],"jobs":[{"builtin":"fifo"}]}`},
		{"pool-iterations", `{"pool":{"max_iterations":5},"jobs":[{"builtin":"fifo"}]}`},
		{"negative-pool", `{"pool":{"node_limit":-1},"jobs":[{"builtin":"fifo"}]}`},
		{"wait-in-batch", `{"jobs":[{"builtin":"fifo","wait":true}]}`},
		{"grid-and-builtin", `{"jobs":[{"grid":"fifo","builtin":"fifo"}]}`},
		{"unknown-grid", `{"jobs":[{"grid":"turbofifo"}]}`},
		{"bad-member-model", `{"jobs":[{"builtin":"fifo"},{"model":"(state x"}]}`},
		{"bad-member-options", `{"jobs":[{"builtin":"fifo","options":{"gc_every":-1}}]}`},
		{"unknown-field", `{"frobnicate":1,"jobs":[{"builtin":"fifo"}]}`},
	}
	for _, c := range cases {
		resp, err := http.Post(e.ts.URL+"/batches", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.name, resp.StatusCode, data)
		}
	}
	if resp, _ := e.get(t, "/batches/b99999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown batch status: %d, want 404", resp.StatusCode)
	}
	if resp, _ := e.get(t, "/batches/b99999/events"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown batch events: %d, want 404", resp.StatusCode)
	}
	doc := e.metricsDoc(t)
	if got := metricInt(t, doc, "submitted"); got != 0 {
		t.Errorf("rejected batches leaked submissions: submitted = %d", got)
	}
	if got := metricInt(t, doc, "batches"); got != 0 {
		t.Errorf("rejected batches counted: batches = %d", got)
	}
}

// The metrics sum invariants must hold across the batch path
// interleaved with plain submissions, cache hits, and portfolio
// escalations. Run under -race in CI.
func TestBatchMetricsInvariantUnderChurn(t *testing.T) {
	e := newTestServer(t, Config{Workers: 4, QueueCap: 32})

	br1 := e.submitBatch(t, BatchRequest{
		Policy: []string{"FD", "XICI"},
		Slice:  BudgetSpec{NodeLimit: 64},
		Jobs: []BatchEntry{
			{SubmitRequest: SubmitRequest{Builtin: "fifo", Size: 3}},
			{SubmitRequest: SubmitRequest{Builtin: "link", Size: 1, Bug: true}},
		},
	})
	single := e.submit(t, SubmitRequest{Builtin: "fifo", Size: 3, Engine: "XICI"})
	br2 := e.submitBatch(t, BatchRequest{Jobs: []BatchEntry{
		{SubmitRequest: SubmitRequest{Builtin: "fsm/door", Engine: "XICI"}},
		{SubmitRequest: SubmitRequest{Builtin: "fifo", Size: 3, Engine: "XICI"}},
	}})

	e.waitBatchDone(t, br1.ID)
	e.waitBatchDone(t, br2.ID)
	e.waitDone(t, single)

	// A duplicate of the single job: answered from the cache, still a
	// completed submission.
	resp, data := e.post(t, SubmitRequest{Builtin: "fifo", Size: 3, Engine: "XICI"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit: %d %s", resp.StatusCode, data)
	}

	doc := e.metricsDoc(t)
	submitted := metricInt(t, doc, "submitted")
	queued := metricInt(t, doc, "queued")
	running := metricInt(t, doc, "running")
	completed := metricInt(t, doc, "completed")
	errs := metricInt(t, doc, "errors")
	if submitted != 6 {
		t.Errorf("submitted = %d, want 6 (4 batch members + 2 singles)", submitted)
	}
	if submitted != queued+running+completed+errs {
		t.Errorf("submitted (%d) != queued+running+completed+errors (%d+%d+%d+%d)",
			submitted, queued, running, completed, errs)
	}
	verified := metricInt(t, doc, "verified")
	violated := metricInt(t, doc, "violated")
	exhausted := metricInt(t, doc, "exhausted")
	if verified+violated+exhausted != completed {
		t.Errorf("outcomes %d+%d+%d don't sum to completed %d", verified, violated, exhausted, completed)
	}
	engines, ok := doc["engines"].(map[string]any)
	if !ok {
		t.Fatalf("engines metric missing: %v", doc["engines"])
	}
	perEngine := 0
	for _, v := range engines {
		perEngine += int(v.(float64))
	}
	if perEngine != completed {
		t.Errorf("per-engine totals sum to %d, want completed %d", perEngine, completed)
	}
	batches := metricInt(t, doc, "batches")
	attempts := metricInt(t, doc, "attempts")
	escalations := metricInt(t, doc, "escalations")
	if batches != 2 {
		t.Errorf("batches = %d, want 2", batches)
	}
	// The cache-hit duplicate completed without an attempt; everything
	// else that ran counts at least one.
	if attempts < completed-1 {
		t.Errorf("attempts = %d, completed = %d", attempts, completed)
	}
	if escalations > attempts {
		t.Errorf("escalations %d > attempts %d", escalations, attempts)
	}
}

// A drain mid-batch still seals the batch: every member terminal, the
// batch state done, and the multiplexed stream ending with the batch
// done line — nothing lost.
func TestBatchDrainSealsStream(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	br := e.submitBatch(t, BatchRequest{Jobs: []BatchEntry{
		{SubmitRequest: SubmitRequest{Model: counterModel(18), Name: "counter", Engine: "Fwd"}},
		{SubmitRequest: SubmitRequest{Builtin: "fifo", Size: 3, Engine: "XICI"}},
	}})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	e.srv.Shutdown(ctx)

	bst := e.waitBatchDone(t, br.ID)
	if bst.Done != 2 {
		t.Fatalf("batch after drain: %+v", bst)
	}
	resp, data := e.get(t, "/batches/"+br.ID+"/events?follow=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch events: %d", resp.StatusCode)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var last map[string]any
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last["event"] != "done" || last["state"] != BatchDone {
		t.Fatalf("last stream line after drain %v, want the batch done marker", last)
	}
}

// DELETE /batches/{id} cancels every member in one stroke.
func TestBatchCancel(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	br := e.submitBatch(t, BatchRequest{Jobs: []BatchEntry{
		{SubmitRequest: SubmitRequest{Model: counterModel(18), Name: "c1", Engine: "Fwd"}},
		{SubmitRequest: SubmitRequest{Model: counterModel(17), Name: "c2", Engine: "Fwd"}},
	}})
	// Let the first member start.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, data := e.get(t, "/jobs/"+br.Jobs[0])
		var st JobStatus
		json.Unmarshal(data, &st)
		if st.State == StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest("DELETE", e.ts.URL+"/batches/"+br.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	bst := e.waitBatchDone(t, br.ID)
	if bst.Exhausted != 2 {
		t.Fatalf("canceled batch tally: %+v", bst)
	}
	for _, id := range br.Jobs {
		st := e.waitDone(t, id)
		if st.Result == nil || st.Result.Cause != "canceled" {
			t.Fatalf("member %s after batch cancel: %+v", id, st.Result)
		}
	}
}

// The regression test for the swallowed Trace.Format error: a render
// failure must surface in the trace text, not finalize a violated
// verdict with a silently empty trace. Validate and Format check
// against different managers here — the problem's own machine passes
// validation while the render manager declares more variables than the
// trace's assignment vectors cover.
func TestTraceRenderErrorSurfaces(t *testing.T) {
	m := bdd.New()
	p := models.NewLink(m, models.LinkConfig{DataBits: 1, Bug: true})
	res := verify.Run(p, verify.Backward, verify.Options{WantTrace: true})
	if res.Outcome != verify.Violated || res.Trace == nil {
		t.Fatalf("bugged link under Bkwd: %v, trace %v", res.Outcome, res.Trace)
	}

	// Happy path: the same manager renders the witness.
	if got := renderTrace(res, m, p); got == "" || strings.Contains(got, "failed") {
		t.Fatalf("healthy render: %q", got)
	}

	// A manager with more variables than the captured assignments:
	// Format must error, and the error must surface in the trace text.
	m2 := bdd.New()
	m2.NewVars("pad", m.NumVars()+1)
	got := renderTrace(res, m2, p)
	if !strings.Contains(got, "trace render failed") {
		t.Fatalf("render error was swallowed: %q", got)
	}
}

// The cache key is over resolved forms, not raw wire fields: wire
// variants that resolve to byte-identical work share one entry.
func TestCacheKeyNormalization(t *testing.T) {
	e := newTestServer(t, Config{Workers: 2, MaxNodeLimit: 1 << 20})
	base := SubmitRequest{Builtin: "fifo", Size: 3, Engine: "XICI"}

	first := e.submit(t, base)
	if st := e.waitDone(t, first); st.Result == nil || st.Result.Outcome != verify.Verified.String() {
		t.Fatalf("seed run: %+v", st.Result)
	}

	variants := []SubmitRequest{
		func() SubmitRequest { r := base; r.Options.Termination = "exact"; return r }(), // "" resolves to exact
		func() SubmitRequest { r := base; r.Budget.NodeLimit = -1; return r }(),         // unlimited clamps to the max
		func() SubmitRequest { r := base; r.Budget.NodeLimit = 1 << 20; return r }(),    // the max, asked explicitly
	}
	for i, v := range variants {
		resp, data := e.post(t, v)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("variant %d: %d %s", i, resp.StatusCode, data)
		}
		var sr SubmitResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		if !sr.Cached {
			t.Errorf("variant %d missed the cache despite resolving to identical work", i)
		}
	}

	e.srv.mu.Lock()
	entries := e.srv.cache.len()
	e.srv.mu.Unlock()
	if entries != 1 {
		t.Errorf("cache holds %d entries for one piece of work, want 1", entries)
	}
	doc := e.metricsDoc(t)
	if got := metricInt(t, doc, "cache_hits"); got != len(variants) {
		t.Errorf("cache_hits = %d, want %d", got, len(variants))
	}
}
