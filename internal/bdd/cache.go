package bdd

import (
	"math"
	"math/bits"
	"time"
)

// Operation tags for the computed cache. Each memoized operation gets a
// distinct tag so results of different operations on the same operands
// cannot collide.
const (
	opNone uint32 = iota
	opITE
	opExists
	opAndExists
	opRestrict
	opConstrain
	opCofactor
)

// cacheEntry memoizes one (op, f, g, h) -> result quadruple. An entry is
// valid only while its epoch matches the cache's current epoch: clearing
// the cache is a single epoch bump rather than an O(size) sweep (see
// clear). Zeroed entries carry epoch 0, which is never current.
type cacheEntry struct {
	op      uint32
	f, g, h Ref
	res     Ref
	epoch   uint32
}

// cacheEntryBytes is the in-memory size of a cacheEntry, for MemEstimate.
const cacheEntryBytes = 24

// Computed-cache sizing. A Manager starts with a small cache and grows it
// on either of two triggers, rehashing the live memo into the larger
// array (resize):
//
//   - the unique table grew past the cache (growBuckets): a cache much
//     smaller than the node working set thrashes;
//   - miss pressure: more than cacheMissFactor × len(entries) lookups
//     missed since the last resize.
//
// Growth never exceeds maxCacheBits; the cache never shrinks.
const (
	// initCacheBits is New's starting size: 2^12 entries, 96 KiB.
	initCacheBits = 12

	// minCacheBits floors a NewWithSize hint.
	minCacheBits = 8

	// maxCacheBits caps growth: 2^23 entries × cacheEntryBytes (24) =
	// 192 MiB. Beyond this, hit-rate gains no longer pay for the memory.
	maxCacheBits = 23

	// cacheMissFactor is the miss-pressure trigger: the cache doubles
	// once the misses since its last resize exceed this multiple of its
	// size.
	cacheMissFactor = 4
)

// computedCache is a direct-mapped cache: colliding entries overwrite each
// other. This is the classical BDD-package design — correctness never
// depends on a hit, only speed.
type computedCache struct {
	entries []cacheEntry
	mask    uint32

	// cur is the current epoch; entries stamped with an older epoch are
	// stale. It starts at 1 so zeroed entries (epoch 0) are born invalid.
	cur uint32

	// growAt is the Manager's miss count (CacheLookups - CacheHits) at
	// which miss pressure doubles the cache; math.MaxUint64 at the cap.
	growAt uint64

	resizes int // completed resizes, both triggers
}

func (c *computedCache) init(logSize uint) {
	logSize = min(max(logSize, minCacheBits), maxCacheBits)
	c.entries = make([]cacheEntry, 1<<logSize)
	c.mask = uint32(len(c.entries) - 1)
	c.cur = 1
	c.growAt = c.nextGrowth(0)
}

// nextGrowth returns the miss count at which the cache, holding its
// current size after misses misses, next doubles for miss pressure.
func (c *computedCache) nextGrowth(misses uint64) uint64 {
	if len(c.entries) >= 1<<maxCacheBits {
		return math.MaxUint64
	}
	return misses + cacheMissFactor*uint64(len(c.entries))
}

// resize grows the cache to 2^logSize entries (capped at maxCacheBits) and
// rehashes every current-epoch entry into the new array; stale entries
// are dropped. Growth only adds index bits, so entries from distinct old
// slots land in distinct new slots and none is lost. misses is the
// Manager's miss count, from which the next miss-pressure growth is
// measured.
func (c *computedCache) resize(logSize uint, misses uint64) {
	logSize = min(logSize, maxCacheBits)
	if 1<<logSize <= len(c.entries) {
		return
	}
	old := c.entries
	c.entries = make([]cacheEntry, 1<<logSize)
	c.mask = uint32(len(c.entries) - 1)
	for _, e := range old {
		if e.epoch == c.cur {
			c.entries[cacheHash(e.op, e.f, e.g, e.h)&c.mask] = e
		}
	}
	c.resizes++
	c.growAt = c.nextGrowth(misses)
}

// logSize returns log2 of the cache size.
func (c *computedCache) logSize() uint { return uint(bits.TrailingZeros(uint(len(c.entries)))) }

func (c *computedCache) memBytes() int {
	return len(c.entries) * cacheEntryBytes
}

// clear invalidates every entry (used after GC, when node indices may be
// reused for different functions). It bumps the epoch instead of sweeping
// the array: a GC-heavy run with a 2^23-entry cache would otherwise spend
// its inter-iteration pauses writing 200MB of tags. On the (once per 2^32
// clears) epoch wraparound the full sweep runs to retire entries whose
// ancient stamps would otherwise read as current again.
func (c *computedCache) clear() {
	c.cur++
	if c.cur == 0 {
		c.sweep()
	}
}

// sweep is the eager O(size) invalidation clear used to perform; it now
// backs only the epoch-wraparound path (and benchmarks).
func (c *computedCache) sweep() {
	for i := range c.entries {
		c.entries[i] = cacheEntry{op: opNone}
	}
	c.cur = 1
}

// cacheHash mixes an operation tag and its operands into a cache index.
// Each operand gets its own odd multiplier (as hash3 does for
// unique-table triples) before the final avalanche. The earlier
// f ^ g<<16 ^ h<<32 pre-mix overlapped operand bits — any two triples
// whose differences cancelled in the overlap (e.g. flipping bit 16 of f
// versus bit 0 of g) collided for every finalizer — which on ITE-heavy
// workloads shows up directly as direct-mapped evictions.
func cacheHash(op uint32, f, g, h Ref) uint32 {
	x := uint64(op)*0xd6e8feb86659fd93 ^
		uint64(f)*0x9e3779b97f4a7c15 ^
		uint64(g)*0xff51afd7ed558ccd ^
		uint64(h)*0xc4ceb9fe1a85ec53
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return uint32(x)
}

// lookup probes the cache. The Manager funnels all probes through here so
// hit-rate statistics stay centralized. This is also a deadline
// checkpoint: when the direct-mapped cache thrashes, a recursion can
// spin through already-allocated nodes indefinitely without ever calling
// alloc, so the allocation-side check alone would never fire.
func (m *Manager) cacheLookup(op uint32, f, g, h Ref) (Ref, bool) {
	m.stats.CacheLookups++
	if !m.deadline.IsZero() && m.stats.CacheLookups%deadlineStride == 0 {
		if time.Now().After(m.deadline) {
			panic(&DeadlineError{Deadline: m.deadline})
		}
	}
	e := &m.cache.entries[cacheHash(op, f, g, h)&m.cache.mask]
	if e.epoch == m.cache.cur && e.op == op && e.f == f && e.g == g && e.h == h {
		m.stats.CacheHits++
		return e.res, true
	}
	if misses := m.stats.CacheLookups - m.stats.CacheHits; misses >= m.cache.growAt {
		m.cache.resize(m.cache.logSize()+1, misses)
	}
	return 0, false
}

// cacheStore records a computed result.
func (m *Manager) cacheStore(op uint32, f, g, h, res Ref) {
	e := &m.cache.entries[cacheHash(op, f, g, h)&m.cache.mask]
	*e = cacheEntry{op: op, f: f, g: g, h: h, res: res, epoch: m.cache.cur}
}
