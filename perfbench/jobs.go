package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/verify"
)

// reply is one POST /jobs as a client saw it.
type reply struct {
	model int // index into the workload's model list
	start time.Time
	wall  time.Duration
	resp  server.SubmitResponse
	trace string // trace id and request span (traced runs only)
	span  int64
}

// result returns the job's result, or nil when the reply carries none.
func (r *reply) result() *server.ResultWire {
	if r.resp.Status == nil || r.resp.Status.State != server.StateDone {
		return nil
	}
	return r.resp.Status.Result
}

// closedLoop runs icidWorkers clients until end: each sends its next
// request only after the previous reply, as icibench -serve and CI do.
// op returns false to stop its client early.
func closedLoop(end time.Time, op func(client int) bool) {
	var wg sync.WaitGroup
	for c := 0; c < icidWorkers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(end) && op(c) {
			}
		}(c)
	}
	wg.Wait()
}

// jobWindow is a measured window of POST /jobs traffic. A traced run
// measures the same window and gives each reply a request span; the
// in-process replays that record the layers below it run after the
// window.
type jobWindow struct {
	start, end    time.Time
	last          time.Time // when the last reply arrived
	before, after icidMetrics
	replies       []reply
	rec           *recorder
	cpu, rss      *sampler // icid's CPU time and resident set over the window
	stealPct      float64
}

// runJobWindow drives the window. pick gives a client's next model
// index (false when there is none left).
func runJobWindow(ctx context.Context, cfg config, d *daemon, res *result, models []model, pick func(client int) (int, bool)) (*jobWindow, error) {
	w := &jobWindow{}
	var err error
	if w.before, err = d.metrics(ctx); err != nil {
		return nil, err
	}
	if cfg.trace {
		w.rec = newRecorder()
	}
	w.cpu, w.rss = cpuSampler(d.cpu), rssSampler(d.pid())
	steal := startSteal()
	w.start = time.Now()
	w.end = w.start.Add(cfg.seconds)
	var mu sync.Mutex
	failures := 0
	closedLoop(w.end, func(client int) bool {
		i, ok := pick(client)
		if !ok || ctx.Err() != nil {
			return false
		}
		r := reply{model: i, start: time.Now()}
		err := d.post(ctx, "/jobs", server.SubmitRequest{Model: models[i].text, Wait: true}, &r.resp)
		done := time.Now()
		r.wall = done.Sub(r.start)
		mu.Lock()
		defer mu.Unlock()
		res.attempted++
		if err != nil {
			res.fail("job %d: %v", i, err)
			failures++
			return true
		}
		if r.result() == nil {
			res.fail("job %d: no result in %+v", i, r.resp.Status)
			return true
		}
		if w.rec != nil {
			r.trace = fmt.Sprintf("job-%d", len(w.replies))
			r.span = w.rec.add(r.trace, "request", 0, r.start, done)
		}
		res.mix[r.result().Outcome]++
		w.replies = append(w.replies, r)
		w.last = done
		return true
	})
	cpuErr, rssErr := w.cpu.finish(), w.rss.finish()
	w.stealPct = steal.pct()
	if cpuErr != nil {
		return nil, cpuErr
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if len(w.replies) == 0 {
		return nil, fmt.Errorf("no job completed (%d failures)", failures)
	}
	w.after = checkInvariants(ctx, d, res)
	return w, nil
}

func walls(rs []reply) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = ms(r.wall)
	}
	return out
}

// endToEnd sets the job metrics of an untraced run.
func (w *jobWindow) endToEnd(res *result, d *daemon) error {
	ws := walls(w.replies)
	jobs := summarize(ws, 0.99)
	done := make([]time.Time, len(w.replies))
	for i, r := range w.replies {
		done[i] = r.start.Add(r.wall)
	}
	whole := w.cpu.spent() / float64(len(w.replies))
	cpuPer, share := w.cpu.calm(done)
	res.metrics["cpu_ms_per_job"] = cpuPer
	rss := median(w.rss.v)
	res.metrics["rss_mb"] = rss
	var err error
	if res.metrics["rss_peak_mb"], err = vmHWM(d.pid()); err != nil {
		return err
	}
	res.metrics["host.steal_pct"] = w.stealPct
	res.metrics["job_p50_ms"] = jobs.P50
	res.metrics["job_p99_ms"] = jobs.High
	res.metrics["jobs_per_s"] = float64(len(w.replies)) / w.last.Sub(w.start).Seconds()
	res.printf("job_ms: %v", jobs)
	res.printf("jobs_per_s: %.1f (%d jobs in %.2fs, %d clients); steal %.1f%% of host CPU",
		res.metrics["jobs_per_s"], len(w.replies), w.last.Sub(w.start).Seconds(), icidWorkers, w.stealPct)
	res.printf("icid cpu per job: %.4fms over the 250-ms intervals with at most %d%% steal (%.0f%% of the jobs), %.4fms over the window; rss median %.1fMB, peak %.1fMB",
		cpuPer, maxStealPct, 100*share, whole, rss, res.metrics["rss_peak_mb"])
	return nil
}

// serverLayers sets the per-layer metrics read from icid's replies and
// /metrics over the window: engine time and phases of the runs icid
// made, the cache tiers, attempts, worker busy share and GC.
func (w *jobWindow) serverLayers(res *result, d *daemon) {
	m := res.metrics
	var engine, overhead, hits []float64
	var ran []*server.ResultWire
	busyMS := 0.0
	for _, r := range w.replies {
		rw := r.result()
		if r.resp.Cached {
			hits = append(hits, ms(r.wall))
			continue
		}
		ran = append(ran, rw)
		engine = append(engine, rw.ElapsedMS)
		overhead = append(overhead, ms(r.wall)-rw.ElapsedMS)
		busyMS += rw.ElapsedMS
	}
	engineLayers(m, ran)
	daemonLayers(m, d, w.before, w.after, w.start, w.last, len(w.replies))
	m["server.engine_ms"] = zeroIfEmpty(engine)
	m["server.overhead_ms"] = zeroIfEmpty(overhead)
	m["server.hit_ms"] = zeroIfEmpty(hits)
	jobs := float64(len(w.replies))
	m["server.attempts_per_member"] = float64(w.after.Attempts-w.before.Attempts) / jobs
	m["server.escalation_share"] = float64(w.after.Escalations-w.before.Escalations) / jobs
	m["server.worker_busy_share"] = busyMS / (ms(w.last.Sub(w.start)) * icidWorkers)
}

// engineLayers sets the verify and core per-layer metrics from the
// results of the engine runs icid made: phase times and effort counts,
// summed.
func engineLayers(m map[string]float64, rws []*server.ResultWire) {
	var ph [verify.NumPhases]float64
	other := 0.0
	var taut, splits, pairs, merges int
	for _, rw := range rws {
		other += rw.ElapsedMS / 1e3
		for i := verify.Phase(0); i < verify.NumPhases; i++ {
			ph[i] += rw.PhaseMS[i.String()] / 1e3
			other -= rw.PhaseMS[i.String()] / 1e3
		}
		taut += rw.Term.TautCalls
		splits += rw.Term.ShannonSplits
		pairs += rw.Eval.PairsScored
		merges += rw.Eval.MergesApplied
	}
	m["verify.image_s"] = ph[verify.PhaseImage]
	m["verify.policy_s"] = ph[verify.PhasePolicy]
	m["verify.termination_s"] = ph[verify.PhaseTerm]
	m["verify.gc_s"] = ph[verify.PhaseGC]
	m["verify.other_s"] = other
	m["core.taut_calls"] = float64(taut)
	m["core.shannon_splits"] = float64(splits)
	m["core.pairs_scored"] = float64(pairs)
	m["core.merges_applied"] = float64(merges)
}

// daemonLayers sets the cache-tier metrics from the /metrics deltas of
// a window, and icid's GC figures from its gctrace lines over it.
func daemonLayers(m map[string]float64, d *daemon, before, after icidMetrics, from, to time.Time, jobs int) {
	if lookups := float64(after.CacheLookups - before.CacheLookups); lookups > 0 {
		m["server.cache_memory_hit_share"] = float64(after.CacheMemHits-before.CacheMemHits) / lookups
		m["server.cache_store_hit_share"] = float64(after.CacheStoreHits-before.CacheStoreHits) / lookups
		m["server.cache_miss_share"] = float64(after.CacheMisses-before.CacheMisses) / lookups
	}
	m["server.cache_evictions"] = float64(after.CacheEvictions - before.CacheEvictions)
	cycles, pause, heap := d.gcBetween(from, to)
	m["runtime.gc_cycles_per_job"] = float64(cycles) / float64(max(jobs, 1))
	m["runtime.gc_pause_ms"] = pause
	m["runtime.heap_peak_mb"] = heap
}

func zeroIfEmpty(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// tracingCost compares the same in-process replays run untraced and
// traced, alternating which runs first. The traced replays are where the
// benchmark's tracing runs (icid itself is never traced), so the
// difference of the medians is the tracing overhead.
type tracingCost struct{ untraced, traced []float64 }

// time runs f untraced and traced, in an order that alternates from one
// call to the next, and returns the first error.
func (o *tracingCost) time(f func(rec *recorder) error, rec *recorder) error {
	run := func(r *recorder, into *[]float64) error {
		t0 := time.Now()
		err := f(r)
		*into = append(*into, ms(time.Since(t0)))
		return err
	}
	if len(o.traced)%2 == 1 {
		if err := run(rec, &o.traced); err != nil {
			return err
		}
		return run(nil, &o.untraced)
	}
	if err := run(nil, &o.untraced); err != nil {
		return err
	}
	return run(rec, &o.traced)
}

// setMetric sets trace.overhead_pct and reports both medians.
func (o *tracingCost) setMetric(res *result, what string) {
	p0, p1 := median(o.untraced), median(o.traced)
	res.metrics["trace.overhead_pct"] = 100 * (p1 - p0) / p0
	res.printf("tracing overhead: %d %s replays, traced median %.4gms vs untraced %.4gms", len(o.traced), what, p1, p0)
}

// crossCheck replays a seeded sample of up to limit replies in process and
// counts every verdict that differs from icid's as a failure. Traced,
// each replay runs once untraced too, for the tracing overhead, and once
// traced: it records its spans under the reply's request span, puts and
// gets the job's status on a scratch store, and the bdd, frontend and
// store per-layer metrics are set.
func crossCheck(ctx context.Context, cfg config, res *result, rs []reply, models []model, limit int, rec *recorder) error {
	var ss *scratchStore
	if rec != nil {
		var err error
		if ss, err = openScratchStore(cfg.out); err != nil {
			return err
		}
		defer ss.discard()
	}
	var cost tracingCost
	var canon, newMgr, build []float64
	var lookups, hits, uniq, gcs, freed uint64
	peakLive, memBytes := 0, 0
	for _, i := range sample(cfg.seed, len(rs), limit) {
		r := rs[i]
		rw := r.result()
		var c time.Duration
		var run cellRun
		do := func(rc *recorder) error {
			rc0, rr, err := replay(ctx, models[r.model].text, verify.Method(rw.Method), rc, r.trace, r.span)
			if rc == rec { // the untraced overhead replay measures time only
				c, run = rc0, rr
			}
			return err
		}
		var err error
		if rec == nil {
			err = do(nil)
		} else {
			err = cost.time(do, rec)
		}
		if err != nil {
			return fmt.Errorf("replaying job %d: %w", r.model, err)
		}
		if !sameVerdict(rw, run.cr.Result) {
			res.fail("job %d: icid %s %s iter=%d peak=%d, in-process %v iter=%d peak=%d", r.model,
				rw.Method, rw.Outcome, rw.Iterations, rw.PeakStateNodes,
				run.cr.Result.Outcome, run.cr.Result.Iterations, run.cr.Result.PeakStateNodes)
		}
		if ss != nil {
			if err := ss.replay(rec, r.trace, r.span, encodedStatus(r)); err != nil {
				return err
			}
		}
		canon = append(canon, ms(c))
		newMgr = append(newMgr, ms(run.newMgr))
		build = append(build, ms(run.build))
		lookups += run.stats.CacheLookups
		hits += run.stats.CacheHits
		uniq += run.stats.UniqueHits
		gcs += uint64(run.stats.GCs)
		freed += uint64(run.stats.FreedNodes)
		peakLive = max(peakLive, run.stats.PeakNodes)
		memBytes = max(memBytes, run.cr.Result.MemBytes)
	}
	if rec == nil {
		return nil
	}
	cost.setMetric(res, "job")
	m := res.metrics
	ss.setMetrics(m)
	m["frontend.canon_ms"] = zeroIfEmpty(canon)
	m["bdd.manager_new_ms"] = zeroIfEmpty(newMgr)
	m["frontend.build_ms"] = zeroIfEmpty(build)
	m["frontend.parse_instantiate_ms"] = zeroIfEmpty(build)
	m["bdd.cache_lookups"] = float64(lookups)
	m["bdd.cache_hit_rate"] = float64(hits) / float64(max(lookups, 1))
	m["bdd.unique_hits"] = float64(uniq)
	m["bdd.peak_live_nodes"] = float64(peakLive)
	m["bdd.gcs"] = float64(gcs)
	m["bdd.freed_nodes"] = float64(freed)
	m["bdd.mem_bytes"] = float64(memBytes)
	return nil
}

// coldPool is how many distinct models jobs-cold generates: enough for
// 1000 jobs/s over the window, twice the most a 2-vCPU host has done. A
// faster icid ends the window early when the pool runs out, and the run
// says so.
func coldPool(window time.Duration) int { return int(1000 * window.Seconds()) }

// runJobsCold is the jobs-cold workload: every request is a distinct
// model, so every job misses both cache tiers, runs the engine on a
// fresh manager and writes the store.
func runJobsCold(ctx context.Context, cfg config) (*result, error) {
	res := newResult()
	g0 := time.Now()
	models, err := newModelGen(cfg.seed).take(coldPool(cfg.seconds))
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

	var next atomic.Int64
	w, err := runJobWindow(ctx, cfg, d, res, models, func(int) (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < len(models)
	})
	if err != nil {
		return nil, err
	}
	if int(next.Load()) >= len(models) {
		res.printf("model pool exhausted: the window ended after %.2fs", w.last.Sub(w.start).Seconds())
	}
	// Cache hygiene: every model is distinct, so nothing may hit.
	if hits := w.after.CacheHits - w.before.CacheHits; hits != 0 {
		res.fail("jobs-cold: %d cache hits, want 0", hits)
	}
	for _, r := range w.replies {
		if r.resp.Cached {
			res.fail("jobs-cold: job %d answered from the cache", r.model)
		}
	}
	if err := w.endToEnd(res, d); err != nil {
		return nil, err
	}
	if cfg.trace {
		w.serverLayers(res, d)
	}
	if err := crossCheck(ctx, cfg, res, w.replies, models, 256, w.rec); err != nil {
		return nil, err
	}
	return res, writeSpans(cfg, w.rec)
}

// footprintServe is how long each retired jobs-hot set-up daemon serves
// hits before it stops; its resident set is sampled over the last half,
// after icid has returned the set-up's memory (it does so within the
// first half second).
const footprintServe = time.Second

// runJobsHot is the jobs-hot workload: Zipf(s=1.1) requests over 512
// models, all computed during set-up, so every reply comes from the
// in-memory LRU or the store and no engine runs in the window.
func runJobsHot(ctx context.Context, cfg config) (*result, error) {
	res := newResult()
	models, err := newModelGen(hotSeed).take(hotModels)
	if err != nil {
		return nil, err
	}
	filled := make([]*server.ResultWire, len(models))
	fill := func(d *daemon) error {
		var next atomic.Int64
		var mu sync.Mutex
		var ferr error
		closedLoop(time.Now().Add(time.Hour), func(int) bool {
			i := int(next.Add(1) - 1)
			if i >= len(models) {
				return false
			}
			var sr server.SubmitResponse
			err := d.post(ctx, "/jobs", server.SubmitRequest{Model: models[i].text, Wait: true}, &sr)
			mu.Lock()
			defer mu.Unlock()
			if err == nil && (sr.Status == nil || sr.Status.Result == nil) {
				err = fmt.Errorf("no result for model %d", i)
			}
			if err != nil {
				ferr = err
				return false
			}
			filled[i] = sr.Status.Result
			return true
		})
		return ferr
	}
	// The footprint icid settles to once it has returned the set-up's
	// memory differs between boots (21-25 MB, now and then 10 MB more),
	// so rss_mb is the median over every set-up's daemon: each retired
	// one serves hits for a while, as the window does, and its resident
	// set is sampled once it has settled.
	var footprints []float64
	settle := func(d *daemon) error {
		seqs := []zipfSeq{newZipfSeq(cfg.seed, 0), newZipfSeq(cfg.seed, 1)}
		rss := rssSampler(d.pid())
		start := time.Now()
		closedLoop(start.Add(footprintServe), func(c int) bool {
			var sr server.SubmitResponse
			return d.post(ctx, "/jobs", server.SubmitRequest{Model: models[seqs[c].next()].text, Wait: true}, &sr) == nil
		})
		if err := rss.finish(); err != nil {
			return err
		}
		var settled []float64
		for i, at := range rss.at {
			if at.Sub(start) >= footprintServe/2 {
				settled = append(settled, rss.v[i])
			}
		}
		if len(settled) == 0 {
			return fmt.Errorf("no resident-set sample after icid settled")
		}
		footprints = append(footprints, median(settled))
		return nil
	}
	d, setup, setups, err := bootDaemons(ctx, cfg, hotReps, fill, settle)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	res.metrics["setup_s"] = setup
	res.printf("setup: icid boot + %d cold fills, cpu %v s, median %.4fs", len(models), setups, setup)

	seqs := make([]zipfSeq, icidWorkers)
	for c := range seqs {
		seqs[c] = newZipfSeq(cfg.seed, c)
	}
	w, err := runJobWindow(ctx, cfg, d, res, models, func(c int) (int, bool) { return seqs[c].next(), true })
	if err != nil {
		return nil, err
	}
	// Cache hygiene: every reply is a cached copy of its fill result,
	// and no engine attempt runs after set-up.
	if n := w.after.Attempts - w.before.Attempts; n != 0 {
		res.fail("jobs-hot: %d engine attempts in the window, want 0", n)
	}
	for _, r := range w.replies {
		want, got := filled[r.model], r.result()
		if !r.resp.Cached || got.Outcome != want.Outcome || got.Iterations != want.Iterations || got.PeakStateNodes != want.PeakStateNodes {
			res.fail("jobs-hot: model %d: cached=%v %s iter=%d, set-up run gave %s iter=%d",
				r.model, r.resp.Cached, got.Outcome, got.Iterations, want.Outcome, want.Iterations)
		}
	}
	mem, st := w.after.CacheMemHits-w.before.CacheMemHits, w.after.CacheStoreHits-w.before.CacheStoreHits
	res.printf("cache tiers: memory %d, store %d (%.1f%% store)", mem, st, 100*float64(st)/float64(max(mem+st, 1)))
	if err := w.endToEnd(res, d); err != nil {
		return nil, err
	}
	footprints = append(footprints, res.metrics["rss_mb"])
	res.metrics["rss_mb"] = median(footprints)
	res.printf("rss_mb: median %.1fMB over the settled footprints %.1f of the set-up daemons and the window's", res.metrics["rss_mb"], footprints)
	// The set-up results are checked in process, all of them; the
	// window's replies were checked against them above.
	fills := make([]reply, len(models))
	for i, rw := range filled {
		fills[i] = reply{model: i, resp: server.SubmitResponse{Status: &server.JobStatus{State: server.StateDone, Result: rw}}}
	}
	if err := crossCheck(ctx, cfg, res, fills, models, len(fills), nil); err != nil {
		return nil, err
	}
	if cfg.trace {
		w.serverLayers(res, d)
		// A hit runs no engine: replay the request's canonicalization
		// and its store traffic only.
		ss, err := openScratchStore(cfg.out)
		if err != nil {
			return nil, err
		}
		defer ss.discard()
		var canon []float64
		var cost tracingCost
		for _, i := range sample(cfg.seed, len(w.replies), 256) {
			r := w.replies[i]
			err := cost.time(func(rec *recorder) error {
				_, c, err := canonSpan(models[r.model].text, rec, r.trace, r.span)
				if err == nil {
					err = ss.replay(rec, r.trace, r.span, encodedStatus(r))
				}
				if rec != nil {
					canon = append(canon, ms(c))
				}
				return err
			}, w.rec)
			if err != nil {
				return nil, err
			}
		}
		cost.setMetric(res, "hit")
		res.metrics["frontend.canon_ms"] = zeroIfEmpty(canon)
		ss.setMetrics(res.metrics)
	}
	return res, writeSpans(cfg, w.rec)
}

// writeSpans saves a traced run's spans; untraced runs have none.
func writeSpans(cfg config, rec *recorder) error {
	if rec == nil {
		return nil
	}
	return rec.write(spanPath(cfg))
}

// encodedStatus is a reply's job status as JSON, the payload the scratch
// store replays.
func encodedStatus(r reply) []byte {
	data, _ := json.Marshal(r.resp.Status) // plain wire structs always marshal
	return data
}
