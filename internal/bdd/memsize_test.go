package bdd_test

import (
	"testing"

	"repro/internal/bdd"
	"repro/internal/models"
	"repro/internal/verify"
)

// TestSmallJobMemEstimate: a job the size of icid's FIFO-4 builtin
// reports the memory it needs, not a fixed cache's.
func TestSmallJobMemEstimate(t *testing.T) {
	for _, meth := range []verify.Method{verify.Forward, verify.XICI} {
		m := bdd.New()
		res := verify.Run(models.NewFIFO(m, models.DefaultFIFO(4)), meth, verify.Options{})
		if res.Outcome != verify.Verified {
			t.Fatalf("%s: %v", meth, res.Outcome)
		}
		if res.MemBytes != m.MemEstimate() || res.MemBytes >= 1<<20 {
			t.Fatalf("%s: MemBytes %d (MemEstimate %d), want under 1 MiB; stats %+v",
				meth, res.MemBytes, m.MemEstimate(), m.Stats())
		}
	}
}
