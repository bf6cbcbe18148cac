package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/server"
	"repro/internal/verify"
)

// The batch-portfolio shape: 16 distinct members per POST /batches, a
// two-rung cheap-first ladder, and a node slice for the cheap rung. On
// the generated models Fwd's peak live nodes have a median near 140, so
// a 200-node slice escalates a steady share of members (about 40%) to
// XICI at full budget.
const batchSize = 16

var (
	batchPolicy = []string{string(verify.Forward), string(verify.XICI)}
	batchSlice  = server.BudgetSpec{NodeLimit: 200}
)

// batchRun is one POST /batches followed to the end of its stream.
type batchRun struct {
	start    time.Time
	makespan time.Duration
	cpuMS    float64 // icid's CPU time from the POST to the stream's EOF
	members  []reply // wall: POST until the member's terminal line
	trace    string
	span     int64
}

// runOneBatch posts one batch, follows /batches/{id}/events to EOF and
// reads the member statuses.
func runOneBatch(ctx context.Context, d *daemon, models []model, first int) (batchRun, error) {
	c0, err := d.cpu()
	if err != nil {
		return batchRun{}, err
	}
	b := batchRun{start: time.Now()}
	req := server.BatchRequest{Name: "perfbench", Policy: batchPolicy, Slice: batchSlice}
	for i := 0; i < batchSize; i++ {
		req.Jobs = append(req.Jobs, server.BatchEntry{SubmitRequest: server.SubmitRequest{Model: models[first+i].text}})
	}
	var br server.BatchResponse
	if err := d.post(ctx, "/batches", req, &br); err != nil {
		return b, err
	}
	if len(br.Jobs) != batchSize {
		return b, fmt.Errorf("batch %s admitted %d members, want %d", br.ID, len(br.Jobs), batchSize)
	}
	doneAt, err := followBatch(ctx, d, br.ID)
	if err != nil {
		return b, err
	}
	b.makespan = time.Since(b.start)
	c1, err := d.cpu()
	if err != nil {
		return b, err
	}
	b.cpuMS = ms(c1 - c0)
	var st server.BatchStatus
	if err := d.get(ctx, "/batches/"+br.ID, &st); err != nil {
		return b, err
	}
	byID := make(map[string]server.JobStatus, len(st.Members))
	for _, m := range st.Members {
		byID[m.ID] = m
	}
	for i, id := range br.Jobs {
		m, ok := byID[id]
		at, seen := doneAt[id]
		if !ok || !seen {
			return b, fmt.Errorf("batch %s: member %s has no status or no terminal line", br.ID, id)
		}
		b.members = append(b.members, reply{model: first + i, start: b.start, wall: at.Sub(b.start), resp: server.SubmitResponse{ID: id, Status: &m}})
	}
	return b, nil
}

// followBatch reads a batch's multiplexed event stream to EOF and
// returns when each member's terminal line arrived.
func followBatch(ctx context.Context, d *daemon, id string) (map[string]time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", d.url+"/batches/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /batches/%s/events: %d", id, resp.StatusCode)
	}
	doneAt := make(map[string]time.Time, batchSize)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var line struct {
			Member string `json:"member"`
			Event  string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("batch %s stream: %w", id, err)
		}
		if line.Member != "" && line.Event == "done" {
			doneAt[line.Member] = time.Now()
		}
	}
	return doneAt, sc.Err()
}

// costBatches is how many batches, from the first, batch-portfolio's
// cpu_ms_per_job and rss_mb are read over. icid keeps up to 1024
// terminal batches with all their members (-history), so its heap, and
// the garbage collection a member costs, grow with every batch run. Over
// the whole window a faster icid would run more batches, hold more and
// score worse; over a fixed count of batches it holds the same. 128
// batches take 6-7 s on a 2-vCPU host, a third of a 20 s window.
const costBatches = 128

// memberPool is how many distinct models batch-portfolio generates:
// enough for 600 members/s over the window, twice the most a 2-vCPU
// host has done.
func memberPool(window time.Duration) int { return int(600 * window.Seconds()) }

// runBatch is the batch-portfolio workload: one client in a closed loop
// posts batches of distinct members and follows each batch's stream to
// EOF before posting the next.
func runBatch(ctx context.Context, cfg config) (*result, error) {
	res := newResult()
	g0 := time.Now()
	models, err := newModelGen(cfg.seed).take(memberPool(cfg.seconds))
	if err != nil {
		return nil, err
	}
	res.printf("inputs: %d distinct models generated in %.2fs (not part of set-up)", len(models), time.Since(g0).Seconds())
	d, setup, setups, err := bootDaemons(ctx, cfg, bootReps, nil, nil)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	res.metrics["setup_s"] = setup
	res.printf("setup: icid boot, cpu %v s, median %.4fs", setups, setup)

	before, err := d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	rssS := rssSampler(d.pid())
	steal := startSteal()
	start := time.Now()
	end := start.Add(cfg.seconds)
	var batches []batchRun
	next := 0
	last := start
	for time.Now().Before(end) && ctx.Err() == nil {
		if next+batchSize > len(models) {
			res.printf("model pool exhausted: the window ended after %.2fs", time.Since(start).Seconds())
			break
		}
		res.attempted += batchSize
		b, err := runOneBatch(ctx, d, models, next)
		next += batchSize
		if err != nil {
			res.failed += batchSize - 1 // every member failed; fail counts the last
			res.fail("batch of models %d..%d: %v", next-batchSize, next-1, err)
			continue
		}
		last = b.start.Add(b.makespan)
		if rec != nil {
			b.trace = fmt.Sprintf("batch-%d", len(batches))
			b.span = rec.add(b.trace, "batch", 0, b.start, last)
			for i := range b.members {
				b.members[i].trace = b.trace
				b.members[i].span = rec.add(b.trace, "member", b.span, b.start, b.start.Add(b.members[i].wall))
			}
		}
		for _, m := range b.members {
			if rw := m.result(); rw == nil {
				res.fail("member %s: state %s, error %q", m.resp.ID, m.resp.Status.State, m.resp.Status.Error)
			} else {
				res.mix[rw.Outcome]++
			}
		}
		batches = append(batches, b)
	}
	if err := rssS.finish(); err != nil {
		return nil, err
	}
	res.metrics["host.steal_pct"] = steal.pct()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if len(batches) == 0 {
		return nil, fmt.Errorf("no batch completed")
	}
	after := checkInvariants(ctx, d, res)
	if hits := after.CacheHits - before.CacheHits; hits != 0 {
		res.fail("batch-portfolio: %d cache hits on distinct members, want 0", hits)
	}

	// CPU per member is taken batch by batch: a batch's members finish
	// in a burst, so fixed time intervals would split a batch's work
	// from its completions. The median over batches, as a batch's cost
	// depends on how many of its members escalate. CPU and memory are
	// read over the first costBatches batches only (see costBatches).
	costed := batches[:min(costBatches, len(batches))]
	var cpuPer []float64
	for _, b := range costed {
		cpuPer = append(cpuPer, b.cpuMS/float64(len(b.members)))
	}
	costEnd := costed[len(costed)-1].start.Add(costed[len(costed)-1].makespan)
	var rssCosted []float64
	for i, at := range rssS.at {
		if !at.After(costEnd) {
			rssCosted = append(rssCosted, rssS.v[i])
		}
	}
	if len(costed) < costBatches {
		res.printf("only %d of %d batches finished in the window: cpu_ms_per_job and rss_mb cover them all", len(costed), costBatches)
	}
	var members []reply
	var makespans []float64
	for _, b := range batches {
		makespans = append(makespans, ms(b.makespan))
		for _, m := range b.members {
			if m.result() != nil {
				members = append(members, m)
			}
		}
	}
	jobs := summarize(walls(members), 0.99)
	bt := summarize(makespans, 0.9)
	rss := median(rssCosted)
	res.metrics["cpu_ms_per_job"] = median(cpuPer)
	res.metrics["rss_mb"] = rss
	if res.metrics["rss_peak_mb"], err = vmHWM(d.pid()); err != nil {
		return nil, err
	}
	res.metrics["job_p50_ms"] = jobs.P50
	res.metrics["job_p99_ms"] = jobs.High
	res.metrics["jobs_per_s"] = float64(len(members)) / last.Sub(start).Seconds()
	res.metrics["members_per_s"] = res.metrics["jobs_per_s"]
	res.metrics["batch_p50_ms"] = bt.P50
	res.metrics["batch_p90_ms"] = bt.High
	res.printf("member_ms: %v", jobs)
	res.printf("batch_ms: %v", bt)
	res.printf("members_per_s: %.1f (%d batches of %d in %.2fs); steal %.1f%% of host CPU",
		res.metrics["jobs_per_s"], len(batches), batchSize, last.Sub(start).Seconds(), res.metrics["host.steal_pct"])
	res.printf("icid over the first %d batches (%.2fs): cpu per member %.4fms at the median, rss median %.1fMB; rss peak %.1fMB over the window",
		len(costed), costEnd.Sub(start).Seconds(), res.metrics["cpu_ms_per_job"], rss, res.metrics["rss_peak_mb"])
	attempts, escalated := 0, 0
	for _, m := range members {
		attempts += len(m.resp.Status.Attempts)
		if len(m.resp.Status.Attempts) > 1 {
			escalated++
		}
	}
	res.printf("escalation: %d of %d members escalated, %.2f attempts per member", escalated, len(members), float64(attempts)/float64(len(members)))

	if cfg.trace {
		batchLayers(res, d, batches, members, last, before, after)
	}
	if err := crossCheck(ctx, cfg, res, members, models, 256, rec); err != nil {
		return nil, err
	}
	return res, writeSpans(cfg, rec)
}

// batchLayers sets the per-layer metrics of the window from its batches
// and their finished members.
func batchLayers(res *result, d *daemon, batches []batchRun, members []reply, last time.Time, before, after icidMetrics) {
	m := res.metrics
	var ran []*server.ResultWire
	var engine, overhead []float64
	attempts, escalated := 0, 0
	busyMS, spanMS := 0.0, 0.0
	for _, b := range batches {
		spanMS += ms(b.makespan)
	}
	for _, mr := range members {
		rw := mr.result()
		ran = append(ran, rw)
		st := mr.resp.Status
		attempts += len(st.Attempts)
		if len(st.Attempts) > 1 {
			escalated++
		}
		memberEngine := 0.0
		for _, a := range st.Attempts {
			engine = append(engine, a.ElapsedMS)
			memberEngine += a.ElapsedMS
		}
		busyMS += memberEngine
		overhead = append(overhead, ms(mr.wall)-memberEngine)
	}
	engineLayers(m, ran)
	daemonLayers(m, d, before, after, batches[0].start, last, len(members))
	n := float64(max(len(members), 1))
	m["server.attempts_per_member"] = float64(attempts) / n
	m["server.escalation_share"] = float64(escalated) / n
	m["server.worker_busy_share"] = busyMS / (spanMS * icidWorkers)
	m["server.engine_ms"] = zeroIfEmpty(engine)
	m["server.overhead_ms"] = zeroIfEmpty(overhead)
}
