package main

import (
	"fmt"
	"math/rand"

	"repro/internal/difftest"
	"repro/internal/lang"
)

// model is one generated request body: a small difftest model in the
// textual model language, already in canonical form.
type model struct {
	text string
}

// modelGen draws distinct small models from difftest.RandomParams and
// difftest.BuildModel, deduplicated by lang.Canon: two draws with the
// same canonical text are the same model to icid (one cache key), so a
// duplicate would be served from the cache and a "cold" job would not
// be cold. The same seed gives the same sequence.
type modelGen struct {
	rng  *rand.Rand
	seen map[string]bool
}

func newModelGen(seed int64) *modelGen {
	return &modelGen{rng: rand.New(rand.NewSource(seed)), seen: make(map[string]bool)}
}

// next returns the next model not returned before.
func (g *modelGen) next() (model, error) {
	for {
		p := difftest.RandomParams(g.rng)
		mo, err := difftest.BuildModel(p)
		if err != nil {
			return model{}, fmt.Errorf("building %+v: %w", p, err)
		}
		canon, err := lang.Canon(mo.Format())
		if err != nil {
			return model{}, fmt.Errorf("canonicalizing %+v: %w", p, err)
		}
		if !g.seen[canon] {
			g.seen[canon] = true
			return model{text: canon}, nil
		}
	}
}

// take returns the next n distinct models.
func (g *modelGen) take(n int) ([]model, error) {
	out := make([]model, n)
	for i := range out {
		m, err := g.next()
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// hotModels is the jobs-hot working set: 4x icid's default 128-entry
// in-memory LRU, so the Zipf tail falls through to the store.
const hotModels = 512

// hotSeed generates the jobs-hot working set, the same for every run:
// --seed drives only the clients' request sequences. If the working set
// followed --seed, the cost of the most requested models, and of the
// set-up that computes them all, would follow whichever model sizes a
// seed happened to draw, and spread over seeds would measure the seed,
// not the program.
const hotSeed = 1

// zipfSeq is one jobs-hot client's request sequence: indices into the
// working set, Zipf(s=1.1) distributed, from a generator seeded by the
// run's seed and the client's number.
type zipfSeq struct{ z *rand.Zipf }

func newZipfSeq(seed int64, client int) zipfSeq {
	r := rand.New(rand.NewSource(seed*7919 + int64(client) + 1))
	return zipfSeq{z: rand.NewZipf(r, 1.1, 1, hotModels-1)}
}

func (s zipfSeq) next() int { return int(s.z.Uint64()) }
