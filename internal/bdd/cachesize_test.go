package bdd

import (
	"math"
	"math/rand"
	"testing"
)

// cacheKey is one synthetic computed-cache key. The cache never
// interprets its operands, so any Refs serve.
type cacheKey struct{ f, g, h, res Ref }

// peekCache reads the cache slot of (op, f, g, h) as cacheLookup does,
// but without counting a lookup or feeding the miss-pressure trigger.
func peekCache(c *computedCache, op uint32, f, g, h Ref) (Ref, bool) {
	e := &c.entries[cacheHash(op, f, g, h)&c.mask]
	if e.epoch == c.cur && e.op == op && e.f == f && e.g == g && e.h == h {
		return e.res, true
	}
	return 0, false
}

// fillCache stores n synthetic entries and returns those still
// retrievable afterwards (later stores may evict earlier ones).
func fillCache(m *Manager, rng *rand.Rand, n int) []cacheKey {
	keys := make([]cacheKey, n)
	for i := range keys {
		keys[i] = cacheKey{Ref(rng.Uint32()), Ref(rng.Uint32()), Ref(rng.Uint32()), Ref(rng.Uint32())}
		m.cacheStore(opITE, keys[i].f, keys[i].g, keys[i].h, keys[i].res)
	}
	var live []cacheKey
	for _, k := range keys {
		if res, ok := peekCache(&m.cache, opITE, k.f, k.g, k.h); ok && res == k.res {
			live = append(live, k)
		}
	}
	return live
}

func checkRetrievable(t *testing.T, c *computedCache, keys []cacheKey, when string) {
	t.Helper()
	for _, k := range keys {
		if res, ok := peekCache(c, opITE, k.f, k.g, k.h); !ok || res != k.res {
			t.Fatalf("%s: entry %+v lost", when, k)
		}
	}
}

// TestCacheResizeKeepsCurrentEpoch: a resize rehashes every
// current-epoch entry into the larger array and drops the entries a GC
// epoch bump made stale.
func TestCacheResizeKeepsCurrentEpoch(t *testing.T) {
	m := New()
	m.NewVars("x", 4)
	rng := rand.New(rand.NewSource(1))

	stale := fillCache(m, rng, 2000)
	// An unprotected node makes GC free something, which bumps the
	// cache epoch.
	m.And(m.VarRef(0), m.VarRef(1))
	if m.GC() == 0 {
		t.Fatal("GC freed nothing; the epoch did not move")
	}
	cur := fillCache(m, rng, 2000)
	if len(stale) < 1000 || len(cur) < 1000 {
		t.Fatalf("too few retrievable entries: %d stale, %d current", len(stale), len(cur))
	}

	before := len(m.cache.entries)
	m.cache.resize(m.cache.logSize()+1, 0)
	if len(m.cache.entries) != 2*before || m.Stats().CacheResizes != 1 {
		t.Fatalf("resize: %d -> %d entries, %d resizes", before, len(m.cache.entries), m.Stats().CacheResizes)
	}
	checkRetrievable(t, &m.cache, cur, "after resize")
	for i, e := range m.cache.entries {
		if e.epoch != 0 && e.epoch != m.cache.cur {
			t.Fatalf("slot %d kept a stale entry (epoch %d, current %d)", i, e.epoch, m.cache.cur)
		}
	}
}

// TestCacheSurvivesBucketGrowth: growing the unique table past the cache
// grows the cache too, and the memo survives that resize.
func TestCacheSurvivesBucketGrowth(t *testing.T) {
	m := New()
	const n = 13
	m.NewVars("x", n)
	live := fillCache(m, rand.New(rand.NewSource(2)), 3000)

	// Distinct minterms built straight through mk: thousands of nodes,
	// no cache traffic.
	for i := 0; len(m.buckets) <= 1<<initCacheBits; i++ {
		r := One
		for j := n - 1; j >= 0; j-- {
			if i>>j&1 == 1 {
				r = m.mk(uint32(j), Zero, r)
			} else {
				r = m.mk(uint32(j), r, Zero)
			}
		}
	}
	s := m.Stats()
	if s.CacheResizes == 0 || s.CacheEntries < len(m.buckets) {
		t.Fatalf("cache did not keep pace: %d entries, %d buckets, %d resizes", s.CacheEntries, len(m.buckets), s.CacheResizes)
	}
	checkRetrievable(t, &m.cache, live, "after bucket growth")
	checkInv(t, m)
}

// thrash runs a fixed, GC-interleaved op sequence over a pool of random
// functions whose distinct subproblems outnumber a 2^12-entry cache. It
// returns the SatCounts of the final pool.
func thrash(m *Manager) []string {
	const n = 16
	vs := m.NewVars("x", n)
	rng := rand.New(rand.NewSource(3))
	lit := func() Ref {
		r := m.VarRef(vs[rng.Intn(n)])
		if rng.Intn(2) == 0 {
			r = r.Not()
		}
		return r
	}
	pool := make([]Ref, 24)
	for i := range pool {
		f := Zero
		for c := 0; c < 6; c++ {
			f = m.Or(f, m.And(lit(), m.And(lit(), lit())))
		}
		pool[i] = m.Protect(f)
	}
	cube := m.MkCube(vs[:n/2])
	for round := 0; round < 30; round++ {
		for i := range pool {
			j, k := rng.Intn(len(pool)), rng.Intn(len(pool))
			var r Ref
			switch rng.Intn(4) {
			case 0:
				r = m.ITE(pool[i], pool[j], pool[k])
			case 1:
				r = m.Xor(pool[i], pool[j])
			case 2:
				r = m.AndExists(pool[i], pool[j], cube)
			default:
				r = m.Restrict(pool[i], pool[j].Not())
			}
			m.Unprotect(pool[i])
			pool[i] = m.Protect(r)
		}
		m.GC()
	}
	out := make([]string, len(pool))
	for i, f := range pool {
		out[i] = m.SatCount(f).String()
	}
	return out
}

// TestCacheGrowsUnderMissPressure: a thrashing sequence drives the cache
// past the unique table's size, which only the miss-pressure trigger can
// do.
func TestCacheGrowsUnderMissPressure(t *testing.T) {
	m := New()
	thrash(m)
	s := m.Stats()
	if s.CacheResizes == 0 || s.CacheEntries <= max(1<<initCacheBits, len(m.buckets)) {
		t.Fatalf("no miss-pressure growth: %d entries, %d buckets, %d resizes, %d lookups",
			s.CacheEntries, len(m.buckets), s.CacheResizes, s.CacheLookups)
	}
	if s.CacheEntries < 1<<initCacheBits<<s.CacheResizes {
		t.Fatalf("%d resizes but only %d entries", s.CacheResizes, s.CacheEntries)
	}
}

// TestCacheGrowthStopsAtCap: no trigger grows the cache past
// maxCacheBits. The capped array is allocated but, left untouched,
// costs no resident memory.
func TestCacheGrowthStopsAtCap(t *testing.T) {
	m := NewWithSize(16, maxCacheBits+4)
	if got := m.Stats().CacheEntries; got != 1<<maxCacheBits {
		t.Fatalf("hint above the cap gave %d entries", got)
	}
	if m.cache.growAt != math.MaxUint64 {
		t.Fatalf("capped cache still schedules growth at %d misses", m.cache.growAt)
	}
	m.cache.resize(maxCacheBits+1, 0)
	m.NewVars("x", 2)
	m.stats.CacheLookups = math.MaxUint64 / 2 // as if after endless misses
	m.And(m.VarRef(0), m.VarRef(1))
	if s := m.Stats(); s.CacheEntries != 1<<maxCacheBits || s.CacheResizes != 0 {
		t.Fatalf("grew past the cap: %d entries, %d resizes", s.CacheEntries, s.CacheResizes)
	}

	var c computedCache
	c.init(maxCacheBits - 1)
	c.resize(maxCacheBits+3, 0)
	if len(c.entries) != 1<<maxCacheBits || c.resizes != 1 || c.growAt != math.MaxUint64 {
		t.Fatalf("resize to the cap: %d entries, %d resizes, growAt %d", len(c.entries), c.resizes, c.growAt)
	}
}

// TestCacheSizingInvisible: the cache size changes speed only. The
// adaptive manager and one with a fixed 2^20-entry cache build the same
// functions and the same node counts.
func TestCacheSizingInvisible(t *testing.T) {
	small := New()
	fixed := NewWithSize(1<<16, 20)
	fixed.cache.growAt = math.MaxUint64
	a, b := thrash(small), thrash(fixed)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pool[%d]: SatCount %s (adaptive) vs %s (fixed)", i, a[i], b[i])
		}
	}
	sa, sb := small.Stats(), fixed.Stats()
	if sa.Nodes != sb.Nodes || sa.PeakNodes != sb.PeakNodes || sa.FreedNodes != sb.FreedNodes {
		t.Fatalf("node counts differ: adaptive %+v, fixed %+v", sa, sb)
	}
	if sb.CacheEntries != 1<<20 || sb.CacheResizes != 0 {
		t.Fatalf("fixed cache moved: %+v", sb)
	}
	if sa.CacheEntries >= sb.CacheEntries {
		t.Fatalf("adaptive cache reached %d entries, no smaller than the fixed one", sa.CacheEntries)
	}
	checkInv(t, small)
	checkInv(t, fixed)
}
