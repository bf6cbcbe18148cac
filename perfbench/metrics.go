package main

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may get
// worse before a change counts as a regression; per-layer metrics carry
// none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the verifier or of icid sees,
// defined on every workload, so each carries one regression bound. A
// "job" is one verification: a paper cell run through bench.RunCell, a
// POST /jobs with wait:true, or one member of a POST /batches.
//
// They are costs, not wall-clock times. On a shared virtual machine the
// hypervisor steals CPU time in bursts and the host's speed changes over
// the day, which moves wall-clock latency and throughput between runs of
// the same code by 10-30%; the CPU a job costs, outside the intervals
// with measured steal, and the memory it holds move far less.
// Wall-clock latency and throughput are in the per-layer list.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_job", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer come from the traced run. A layer a workload does not
// exercise reports 0 there; README.md has the matrix. The last ones are
// end-to-end wall-clock figures, which carry no bound here: either they
// exist on one workload only, or they move with the host's CPU steal.
var perLayer = []metricDef{
	{Name: "bdd.manager_new_ms", Unit: "ms", Better: "lower"},
	{Name: "bdd.cache_lookups", Unit: "count", Better: "lower"},
	{Name: "bdd.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "bdd.unique_hits", Unit: "count", Better: "higher"},
	{Name: "bdd.peak_live_nodes", Unit: "count", Better: "lower"},
	{Name: "bdd.gcs", Unit: "count", Better: "lower"},
	{Name: "bdd.freed_nodes", Unit: "count", Better: "lower"},
	{Name: "bdd.mem_bytes", Unit: "bytes", Better: "lower"},
	{Name: "verify.image_s", Unit: "s", Better: "lower"},
	{Name: "verify.policy_s", Unit: "s", Better: "lower"},
	{Name: "verify.termination_s", Unit: "s", Better: "lower"},
	{Name: "verify.gc_s", Unit: "s", Better: "lower"},
	{Name: "verify.other_s", Unit: "s", Better: "lower"},
	{Name: "core.taut_calls", Unit: "count", Better: "lower"},
	{Name: "core.shannon_splits", Unit: "count", Better: "lower"},
	{Name: "core.pairs_scored", Unit: "count", Better: "lower"},
	{Name: "core.merges_applied", Unit: "count", Better: "lower"},
	{Name: "frontend.build_ms", Unit: "ms", Better: "lower"},
	{Name: "frontend.canon_ms", Unit: "ms", Better: "lower"},
	{Name: "frontend.parse_instantiate_ms", Unit: "ms", Better: "lower"},
	{Name: "server.engine_ms", Unit: "ms", Better: "lower"},
	{Name: "server.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.hit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cache_memory_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "server.cache_store_hit_share", Unit: "ratio", Better: "lower"},
	{Name: "server.cache_miss_share", Unit: "ratio", Better: "lower"},
	{Name: "server.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "server.attempts_per_member", Unit: "ratio", Better: "lower"},
	{Name: "server.escalation_share", Unit: "ratio", Better: "lower"},
	{Name: "server.worker_busy_share", Unit: "ratio", Better: "higher"},
	{Name: "store.put_us", Unit: "us", Better: "lower"},
	{Name: "store.get_us", Unit: "us", Better: "lower"},
	{Name: "runtime.gc_cycles_per_job", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
	{Name: "host.steal_pct", Unit: "%", Better: "lower"},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "job_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "tables_s", Unit: "s", Better: "lower"},
	{Name: "cell_geomean_ms", Unit: "ms", Better: "lower"},
	{Name: "batch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "batch_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "members_per_s", Unit: "1/s", Better: "higher"},
}
