package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/bdd"
	"repro/internal/bench"
	"repro/internal/lang"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/verify"
)

// replay re-runs one job icid answered, in process: lang.Canon on the
// request body, then bench.RunCell on a cell whose Build is lang.Parse
// of the canonical text, with the engine that settled the job. Traced,
// it records the spans canon and cell -> manager_new -> build -> engine
// under the job's request span.
func replay(ctx context.Context, text string, method verify.Method, rec *recorder, trace string, parent int64) (canon time.Duration, run cellRun, err error) {
	canonText, canon, err := canonSpan(text, rec, trace, parent)
	if err != nil {
		return 0, cellRun{}, err
	}
	if _, err := lang.ParseModel(canonText); err != nil {
		return 0, cellRun{}, err
	}
	cell := paperCell{cell: bench.Cell{
		Method: method,
		Build: func(m *bdd.Manager) verify.Problem {
			p, err := lang.Parse(m, canonText, "model")
			if err != nil {
				panic(fmt.Sprintf("perfbench: canonical text no longer parses: %v", err)) // ParseModel accepted it above
			}
			return p
		},
	}}
	return canon, runPaperCell(ctx, cell, rec, trace, parent), nil
}

// canonSpan times lang.Canon on a request body, as icid runs it on
// every submission, recording a canon span under parent.
func canonSpan(text string, rec *recorder, trace string, parent int64) (string, time.Duration, error) {
	t0 := time.Now()
	canon, err := lang.Canon(text)
	d := time.Since(t0)
	rec.add(trace, "canon", parent, t0, t0.Add(d))
	return canon, d, err
}

// sameVerdict compares icid's result with the in-process run of the
// same model and engine: outcome, iterations and peak iterate size.
func sameVerdict(rw *server.ResultWire, r verify.Result) bool {
	return rw.Outcome == r.Outcome.String() && rw.Method == string(r.Method) &&
		rw.Iterations == r.Iterations && rw.PeakStateNodes == r.PeakStateNodes
}

// sample picks up to n distinct indices of [0, total) with a generator
// seeded by seed, in increasing order.
func sample(seed int64, total, n int) []int {
	idx := rand.New(rand.NewSource(seed)).Perm(total)
	if len(idx) > n {
		idx = idx[:n]
	}
	sort.Ints(idx)
	return idx
}

// scratchStore replays icid's result-store traffic in process: one
// store.Put and one store.Get per replayed job, on a store.Store in a
// temporary directory, with the job's encoded status as the payload
// (icid stores the result and its event lines, about that size).
type scratchStore struct {
	dir        string
	st         *store.Store
	puts, gets []float64 // µs
}

func openScratchStore(dir string) (*scratchStore, error) {
	tmp, err := os.MkdirTemp(dir, "scratch-store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(tmp, store.Config{})
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	return &scratchStore{dir: tmp, st: st}, nil
}

// replay puts and gets one payload, recording store_put and store_get
// spans under parent.
func (s *scratchStore) replay(rec *recorder, trace string, parent int64, payload []byte) error {
	key := fmt.Sprintf("%064x", len(s.puts))
	t0 := time.Now()
	if err := s.st.Put(key, payload); err != nil {
		return err
	}
	t1 := time.Now()
	got, ok := s.st.Get(key)
	t2 := time.Now()
	if !ok || len(got) != len(payload) {
		return fmt.Errorf("scratch store lost key %s", key)
	}
	rec.add(trace, "store_put", parent, t0, t1)
	rec.add(trace, "store_get", parent, t1, t2)
	s.puts = append(s.puts, float64(t1.Sub(t0))/1e3)
	s.gets = append(s.gets, float64(t2.Sub(t1))/1e3)
	return nil
}

// setMetrics sets the store per-layer metrics: the median Put and Get.
func (s *scratchStore) setMetrics(m map[string]float64) {
	m["store.put_us"] = zeroIfEmpty(s.puts)
	m["store.get_us"] = zeroIfEmpty(s.gets)
}

// discard closes and removes the store; its contents are scratch.
func (s *scratchStore) discard() {
	s.st.Close()
	os.RemoveAll(s.dir)
}
