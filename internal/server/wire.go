package server

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/resource"
	"repro/internal/verify"
)

// Wire types of the icid HTTP/JSON API. The full reference, with curl
// examples, lives in docs/api.md; the types here are the single source
// of truth for field names.

// SubmitRequest is the body of POST /jobs. Exactly one of Model (a
// textual model in the internal/lang format) or Builtin (a named
// built-in from internal/models) selects the machine.
type SubmitRequest struct {
	// Model is textual model source (see internal/lang). It is parsed
	// and canonicalized at submission, so syntax errors are rejected
	// with 400 before the job queues.
	Model string `json:"model,omitempty"`

	// Name labels the job in statuses and results. Defaults to the
	// builtin's name, or "model" for textual submissions.
	Name string `json:"name,omitempty"`

	// Builtin selects a model from the zoo registry by name — the
	// paper families (fifo, network, filter, pipeline, coherence,
	// link), the parameterized additions (elevator, traffic,
	// protostack), and the imported machines (fsm/...). GET /models
	// lists them with their parameters.
	Builtin string `json:"builtin,omitempty"`

	// Params sets the builtin's named parameters (e.g. {"floors": 5}
	// for elevator); unset parameters take the entry's defaults.
	// Named params win over the legacy flat knobs below.
	Params map[string]int `json:"params,omitempty"`

	// Size is the legacy flat size knob of the original six families
	// (fifo depth, network processors, filter depth, coherence caches,
	// link data bits). 0 = the builtin's default.
	Size int `json:"size,omitempty"`

	// Regs and Bits configure the pipeline builtin.
	Regs int `json:"regs,omitempty"`
	Bits int `json:"bits,omitempty"`

	// Assist supplies the model's user assisting invariants (filter,
	// pipeline); Bug seeds the model's planted bug.
	Assist bool `json:"assist,omitempty"`
	Bug    bool `json:"bug,omitempty"`

	// Engine names the verification engine (default "XICI"); any name
	// in the registry — GET /healthz lists them — is accepted.
	Engine string `json:"engine,omitempty"`

	// Budget bounds the run server-side; zero fields inherit the
	// daemon's defaults, and the daemon may clamp them to its maxima.
	Budget BudgetSpec `json:"budget"`

	// Options tunes the engine.
	Options OptionsSpec `json:"options"`

	// Wait makes the submission synchronous: the response carries the
	// final status, and hanging up cancels the job (the request context
	// is joined into the job's budget).
	Wait bool `json:"wait,omitempty"`
}

// BudgetSpec is the wire form of resource.Budget. -1 means explicitly
// unlimited (resource.Unlimited), subject to the daemon's clamps.
type BudgetSpec struct {
	NodeLimit     int   `json:"node_limit,omitempty"`
	TimeoutMS     int64 `json:"timeout_ms,omitempty"`
	MaxIterations int   `json:"max_iterations,omitempty"`
}

// OptionsSpec is the wire form of the engine options a client may set.
type OptionsSpec struct {
	// Termination selects the ICI-family convergence test:
	// "exact" (default), "implication", or "fast".
	Termination string `json:"termination,omitempty"`

	// GrowThreshold overrides the XICI policy threshold (0 = default).
	GrowThreshold float64 `json:"grow_threshold,omitempty"`

	// WantTrace requests a counterexample trace on violation; the
	// rendered trace rides in the result's "trace" field.
	WantTrace bool `json:"want_trace,omitempty"`

	// GCEvery triggers a BDD garbage collection every n iterations.
	GCEvery int `json:"gc_every,omitempty"`
}

// SubmitResponse is the body of a successful POST /jobs.
type SubmitResponse struct {
	ID     string     `json:"id"`
	Cached bool       `json:"cached"`
	Status *JobStatus `json:"status,omitempty"` // wait mode and cache hits: final status inline
	Node   string     `json:"node,omitempty"`   // executing node's advertised address (cluster mode)
}

// JobStatus is the body of GET /jobs/{id} and the elements of GET /jobs.
type JobStatus struct {
	ID          string      `json:"id"`
	State       string      `json:"state"` // queued | running | done | error
	Name        string      `json:"name"`
	Engine      string      `json:"engine"`
	Batch       string      `json:"batch,omitempty"`  // owning batch id, for batch members
	Policy      []string    `json:"policy,omitempty"` // escalation ladder, for portfolio members
	Cached      bool        `json:"cached,omitempty"`
	Events      int         `json:"events"`
	SubmittedAt string      `json:"submitted_at"`
	Error       string      `json:"error,omitempty"`
	Attempts    []Attempt   `json:"attempts,omitempty"` // every engine attempt, ladder order
	Result      *ResultWire `json:"result,omitempty"`
}

// Attempt records one engine attempt of a job — for portfolio members,
// one rung of the escalation ladder. The sequence makes the scheduling
// policy observable: each record shows which engine ran, under what
// node slice, how it ended, and whether the policy escalated past it.
type Attempt struct {
	Engine        string  `json:"engine"`
	Outcome       string  `json:"outcome"`
	Cause         string  `json:"cause,omitempty"`
	Iterations    int     `json:"iterations"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	PeakLiveNodes int     `json:"peak_live_nodes"`
	NodeLimit     int     `json:"node_limit,omitempty"` // the bound this attempt ran under
	Cached        bool    `json:"cached,omitempty"`     // answered from the result cache
	Escalated     bool    `json:"escalated,omitempty"`  // the policy moved on to the next engine
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateError   = "error"
)

// ResultWire is the serializable form of verify.Result.
type ResultWire struct {
	Problem        string             `json:"problem"`
	Method         string             `json:"method"`
	Outcome        string             `json:"outcome"` // verified | violated | exhausted
	Cause          string             `json:"cause,omitempty"`
	Why            string             `json:"why,omitempty"`
	Iterations     int                `json:"iterations"`
	PeakStateNodes int                `json:"peak_state_nodes"`
	PeakProfile    []int              `json:"peak_profile,omitempty"`
	MemBytes       int                `json:"mem_bytes"`
	ElapsedMS      float64            `json:"elapsed_ms"`
	ViolationDepth int                `json:"violation_depth,omitempty"`
	Trace          string             `json:"trace,omitempty"`
	PeakLiveNodes  int                `json:"peak_live_nodes"` // manager high-water mark, incl. intermediates
	TotalVars      int                `json:"total_vars"`
	Term           core.TermStats     `json:"term"`
	Eval           EvalWire           `json:"eval"`
	SizeTrajectory []int              `json:"size_trajectory,omitempty"`
	PhaseMS        map[string]float64 `json:"phase_ms,omitempty"`
}

// EvalWire mirrors core.EvalStats with wire field names.
type EvalWire struct {
	PairsScored    int `json:"pairs_scored"`
	MergesApplied  int `json:"merges_applied"`
	BudgetOverflow int `json:"budget_overflow"`
	Rounds         int `json:"rounds"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// BatchRequest is the body of POST /batches: many models in one
// submission, admitted atomically (all members queue or none do),
// sharing a budget pool and, optionally, a portfolio scheduling policy.
type BatchRequest struct {
	// Name labels the batch in statuses.
	Name string `json:"name,omitempty"`

	// Jobs are the member submissions. At least one is required; a
	// grid entry may expand into several members.
	Jobs []BatchEntry `json:"jobs"`

	// Policy is the batch's engine-escalation ladder, cheap engines
	// first (e.g. ["FD","ICI","XICI","PDR"]). Members without an
	// explicit engine run the ladder: every rung but the last executes
	// under the slice budget, and an exhausted verdict whose cause is
	// node-limit, deadline, iteration-cap, or other (the PR 2/3
	// taxonomy) escalates to the next engine; cancellation never
	// escalates. The last rung runs under the member's full budget.
	Policy []string `json:"policy,omitempty"`

	// Pool is the batch-wide shared budget pool: node_limit is a node
	// allowance decremented by each finished member's peak live nodes,
	// timeout_ms a wall window for the whole batch. Zero fields are
	// unbounded. Attempts are clamped to what the pool has left;
	// members reaching an empty pool finalize as exhausted without
	// running (cause node-limit or deadline). max_iterations is not
	// meaningful pool-wide and is rejected.
	Pool BudgetSpec `json:"pool"`

	// Slice bounds the non-final rungs of the policy ladder — the
	// "cheap first" lever. Zero fields inherit the member's budget, so
	// an entirely unset slice runs every rung at full budget.
	Slice BudgetSpec `json:"slice"`

	// Budget and Options are member defaults; a member's zero fields
	// inherit them before the daemon's own defaults and clamps apply.
	Budget  BudgetSpec  `json:"budget"`
	Options OptionsSpec `json:"options"`
}

// BatchEntry is one member of a batch: a SubmitRequest (minus wait,
// which is rejected inside a batch) or a zoo grid reference.
type BatchEntry struct {
	SubmitRequest

	// Grid names a zoo registry entry and expands into one member per
	// benchmark size of that entry — the grid `icibench -zoo` runs.
	// Mutually exclusive with model/builtin.
	Grid string `json:"grid,omitempty"`
}

// BatchResponse is the body of a successful POST /batches.
type BatchResponse struct {
	ID   string   `json:"id"`
	Jobs []string `json:"jobs"`           // member job ids, expansion order
	Node string   `json:"node,omitempty"` // executing node's advertised address (cluster mode)
}

// BatchStatus is the body of GET /batches/{id} and the elements of
// GET /batches (which omits Members).
type BatchStatus struct {
	ID          string      `json:"id"`
	Name        string      `json:"name,omitempty"`
	State       string      `json:"state"` // running | done
	Policy      []string    `json:"policy,omitempty"`
	SubmittedAt string      `json:"submitted_at"`
	Members     []JobStatus `json:"members,omitempty"`
	Pool        *PoolWire   `json:"pool,omitempty"`

	// Outcome tally over terminal members, plus the portfolio effort.
	Done        int `json:"done"`
	Verified    int `json:"verified"`
	Violated    int `json:"violated"`
	Exhausted   int `json:"exhausted"`
	Errors      int `json:"errors"`
	Attempts    int `json:"attempts"`
	Escalations int `json:"escalations"`
}

// PoolWire reports a batch pool's remaining allowance.
type PoolWire struct {
	NodesLeft  int     `json:"nodes_left"` // -1 = unbounded
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
}

// ModelInfo is one element of GET /models: a zoo registry entry with
// its parameter surface.
type ModelInfo struct {
	Name     string           `json:"name"`
	Desc     string           `json:"desc"`
	Defaults map[string]int   `json:"defaults,omitempty"`
	Sizes    []map[string]int `json:"sizes,omitempty"`
}

// resultWire converts a finished run into its wire form. traceText is
// the pre-rendered counterexample (the run's manager does not outlive
// the worker, so rendering happens there).
func resultWire(res verify.Result, traceText string) *ResultWire {
	rw := &ResultWire{
		Problem:        res.Problem,
		Method:         string(res.Method),
		Outcome:        res.Outcome.String(),
		Cause:          res.Cause(),
		Why:            res.Why,
		Iterations:     res.Iterations,
		PeakStateNodes: res.PeakStateNodes,
		PeakProfile:    res.PeakProfile,
		MemBytes:       res.MemBytes,
		ElapsedMS:      float64(res.Elapsed) / float64(time.Millisecond),
		ViolationDepth: res.ViolationDepth,
		Trace:          traceText,
		Term:           res.Term,
		Eval: EvalWire{
			PairsScored:    res.Eval.PairsScored,
			MergesApplied:  res.Eval.MergesApplied,
			BudgetOverflow: res.Eval.BudgetOverflow,
			Rounds:         res.Eval.Rounds,
		},
		SizeTrajectory: res.SizeTrajectory,
	}
	if total := res.PhaseDurations.Total(); total > 0 {
		rw.PhaseMS = make(map[string]float64, verify.NumPhases)
		for ph, d := range res.PhaseDurations {
			if d > 0 {
				rw.PhaseMS[verify.Phase(ph).String()] = float64(d) / float64(time.Millisecond)
			}
		}
	}
	return rw
}

// budget resolves the spec against the daemon's defaults and clamps.
func (bs BudgetSpec) budget(cfg Config) (resource.Budget, error) {
	b := resource.Budget{
		NodeLimit:     cfg.DefaultBudget.NodeLimit,
		Timeout:       cfg.DefaultBudget.Timeout,
		MaxIterations: cfg.DefaultBudget.MaxIterations,
	}
	if bs.NodeLimit != 0 {
		if bs.NodeLimit < resource.Unlimited {
			return b, fmt.Errorf("budget.node_limit %d is invalid (use -1 for unlimited)", bs.NodeLimit)
		}
		b.NodeLimit = bs.NodeLimit
	}
	if bs.TimeoutMS != 0 {
		if bs.TimeoutMS < resource.Unlimited {
			return b, fmt.Errorf("budget.timeout_ms %d is invalid (use -1 for unlimited)", bs.TimeoutMS)
		}
		if bs.TimeoutMS == resource.Unlimited {
			b.Timeout = resource.Unlimited
		} else {
			b.Timeout = time.Duration(bs.TimeoutMS) * time.Millisecond
		}
	}
	if bs.MaxIterations != 0 {
		if bs.MaxIterations < resource.Unlimited {
			return b, fmt.Errorf("budget.max_iterations %d is invalid (use -1 for unlimited)", bs.MaxIterations)
		}
		b.MaxIterations = bs.MaxIterations
	}
	// Server-side clamps: a client may not exceed the daemon's maxima,
	// and "unlimited" means "the maximum" when one is configured.
	if cfg.MaxNodeLimit > 0 && (b.NodeLimit <= 0 || b.NodeLimit > cfg.MaxNodeLimit) {
		b.NodeLimit = cfg.MaxNodeLimit
	}
	if cfg.MaxTimeout > 0 && (b.Timeout <= 0 || b.Timeout > cfg.MaxTimeout) {
		b.Timeout = cfg.MaxTimeout
	}
	return b.Norm(), nil
}

// options builds the engine options (observer excluded — the worker
// attaches its own sink). Numeric fields are validated here, not left
// to the engines: a negative GC period or a negative/non-finite grow
// threshold would otherwise flow straight into the run, so they are
// 400s exactly like malformed budget fields.
func (os OptionsSpec) options() (verify.Options, error) {
	opt := verify.Options{
		WantTrace: os.WantTrace,
		GCEvery:   os.GCEvery,
		Core:      core.Options{GrowThreshold: os.GrowThreshold},
	}
	if os.GCEvery < 0 {
		return opt, fmt.Errorf("options.gc_every %d is invalid (0 = never)", os.GCEvery)
	}
	if os.GrowThreshold < 0 || math.IsNaN(os.GrowThreshold) || math.IsInf(os.GrowThreshold, 0) {
		return opt, fmt.Errorf("options.grow_threshold %v is invalid (must be finite and >= 0)", os.GrowThreshold)
	}
	switch os.Termination {
	case "", "exact":
		opt.Termination = verify.TermExact
	case "implication":
		opt.Termination = verify.TermImplication
	case "fast":
		opt.Termination = verify.TermFast
	default:
		return opt, fmt.Errorf("unknown termination mode %q (exact, implication, fast)", os.Termination)
	}
	return opt, nil
}
