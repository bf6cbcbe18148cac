package difftest

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/lang"
)

// randomParamsGolden is the SHA-256 of the canonical text of the first
// randomParamsGoldenN models drawn from RandomParams with seed 1, each
// text followed by a NUL byte.
const (
	randomParamsGoldenN = 256
	randomParamsGolden  = "ef2c5820473a44682c423d419b91ab905a5d536362b8d6730128eadafdbc060e"
)

// TestRandomParamsStreamStable pins instance generation: the benchmark
// workloads and the CI campaigns build their models from this stream, so
// a change to what RandomParams draws, or in what order, silently
// changes every one of them.
func TestRandomParamsStreamStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := sha256.New()
	for i := 0; i < randomParamsGoldenN; i++ {
		p := RandomParams(rng)
		mo, err := BuildModel(p)
		if err != nil {
			t.Fatalf("draw %d (%+v): %v", i, p, err)
		}
		canon, err := lang.Canon(mo.Format())
		if err != nil {
			t.Fatalf("draw %d (%+v): %v", i, p, err)
		}
		h.Write([]byte(canon))
		h.Write([]byte{0})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != randomParamsGolden {
		t.Fatalf("RandomParams stream changed: hash %s, want %s", got, randomParamsGolden)
	}
}
