package bdd

// Shared-memory concurrent mode (NewShared): the node store, unique
// table, and computed cache variants that allow BDD operations to run
// from many goroutines against ONE Manager, in the style of Sylvan
// (van Dijk & van de Pol, TACAS 2015) but with the lock-granularity
// simplifications appropriate to this package's scale:
//
//   - The unique table is split into 64 shards selected by the low bits
//     of the (level, low, high) hash. Each shard owns a mutex covering
//     its bucket array, its node arena, and its free list; an insert
//     therefore locks exactly one shard, and two inserts contend only
//     when they hash to the same shard (1/64 of the time under a good
//     hash). A node's global index encodes its shard in the low
//     shardBits, so child lookups go straight to the owning shard with
//     no indirection table.
//
//   - Node memory is chunked: each shard grows by fixed-size chunks
//     published through atomic pointers, so the address of a node never
//     changes after it is created. Concurrent readers can then chase
//     (level, low, high) edges with plain loads — the edges of a
//     reachable node are immutable — while writers append new chunks
//     without invalidating anything. This is the property the sequential
//     append-grown []node slice fundamentally lacks.
//
//   - The computed cache is one direct-mapped array guarded by striped
//     mutexes (per the classical observation that correctness never
//     depends on a hit, racing writers may overwrite each other freely;
//     the stripes only prevent torn 24-byte entries). Entries carry the
//     same epoch tag as the sequential cache, so GC invalidation is an
//     epoch bump here too.
//
// Memory-ordering argument, in happens-before terms: a node's fields are
// written while holding its shard's lock, strictly before its Ref
// escapes. A Ref travels to another goroutine only through (a) a
// computed-cache entry, written and read under a stripe mutex, (b) a
// fork/join of par.Forker, which synchronizes through a channel, or (c)
// the caller's own join points (par.Pool.ForEach). Each route is a
// release/acquire edge, so the node writes happen-before any cross-
// goroutine read of them; thereafter the fields are immutable until GC.
// GC itself runs only at quiescence (no operations in flight — enforced
// by an in-flight counter and by the callers' structure: the verify
// harness collects between iterations, after every pool join).

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/par"
)

const (
	// shardBits selects the unique-table shard from the low bits of the
	// node hash; a node's global index is local<<shardBits | shard.
	shardBits = 6
	numShards = 1 << shardBits
	shardMask = numShards - 1

	// Node arenas grow in chunks of 2^chunkBits nodes. With
	// maxShardChunks chunk slots per shard the table tops out at
	// 64 shards × 2^10 chunks × 2^13 nodes = 2^29 nodes, matching the
	// Ref encoding's 31-bit index budget with room to spare.
	chunkBits      = 13
	chunkSize      = 1 << chunkBits
	chunkMask      = chunkSize - 1
	maxShardChunks = 1 << 10

	// cacheStripeBits fixes the number of computed-cache stripe locks.
	// 1024 stripes keep the probability that two of ~10 workers contend
	// on one stripe negligible while costing 64KB of padded mutexes.
	cacheStripeBits = 10
	cacheStripes    = 1 << cacheStripeBits
	cacheStripeMask = cacheStripes - 1

	// defaultForkDepth is the sequential cutoff for the parallel
	// recursions: ParITE and friends fork their cofactor sub-calls only
	// in the top defaultForkDepth levels of the recursion, giving up to
	// 2^defaultForkDepth ≈ 256 independent tasks — ample to keep a
	// worker pool busy — while the (exponentially more numerous) deep
	// calls run on the zero-overhead sequential path.
	defaultForkDepth = 8
)

// nodeChunk is one arena block; node addresses within a published chunk
// are stable for the life of the Manager.
type nodeChunk [chunkSize]node

// tableShard is 1/64th of the unique table: a bucket array of local node
// indices chained through node.next, plus the shard's arena and free
// list. All mutation happens under mu; reads of published node fields
// need no lock (see the memory-ordering argument above).
type tableShard struct {
	mu      sync.Mutex
	buckets []int32 // heads of hash chains (local indices; -1 ends)
	mask    uint32
	top     int32 // next fresh local index
	free    int32 // free-list head (local index; -1 empty)
	count   int   // live nodes in this shard
	chunks  []atomic.Pointer[nodeChunk]
}

// nodeAt returns the shard-local node record.
func (sh *tableShard) nodeAt(local uint32) *node {
	return &sh.chunks[local>>chunkBits].Load()[local&chunkMask]
}

// paddedMutex keeps adjacent stripe locks on distinct cache lines.
type paddedMutex struct {
	sync.Mutex
	_ [56]byte
}

// stripedCache is the concurrent computed cache: one direct-mapped entry
// array, with mutation serialized per stripe so a reader can never
// observe a torn entry. A wrong-but-whole entry is impossible (the full
// key is compared on lookup) and a lost store merely costs a recompute.
type stripedCache struct {
	entries []cacheEntry
	mask    uint32
	cur     uint32 // epoch; mutated only at quiescence (GC)
	locks   [cacheStripes]paddedMutex
}

func (c *stripedCache) init(bits uint) {
	if bits < 8 {
		bits = 8
	}
	c.entries = make([]cacheEntry, 1<<bits)
	c.mask = uint32(len(c.entries) - 1)
	c.cur = 1
}

// clear invalidates all entries via an epoch bump (quiescent callers
// only). Wraparound handling mirrors computedCache.clear.
func (c *stripedCache) clear() {
	c.cur++
	if c.cur == 0 {
		for i := range c.entries {
			c.entries[i] = cacheEntry{op: opNone}
		}
		c.cur = 1
	}
}

// sharedState is everything a concurrent-mode Manager hangs off its
// shared field: the sharded table, the striped cache, atomic statistics,
// and the fork/join machinery of the parallel operations.
type sharedState struct {
	shards [numShards]tableShard
	cache  stripedCache

	nodeCount  atomic.Int64 // live nodes, incl. terminal
	peakNodes  atomic.Int64
	lookups    atomic.Uint64
	hits       atomic.Uint64
	uniqueHits atomic.Uint64
	mkTick     atomic.Uint64 // deadline/cancel stride counter for mk

	fork      *par.Forker
	forkDepth int

	// ops counts in-flight parallel entry points (ParITE/ParAndN/
	// ParAndExists); GC defers itself while it is non-zero.
	ops        atomic.Int32
	gcDeferred atomic.Int64
}

// NewShared creates a Manager in shared-memory concurrent mode sized for
// workers concurrent goroutines (workers <= 0 selects GOMAXPROCS) with a
// computed cache of 2^cacheBits entries. Unlike sequential managers the
// cache does not grow adaptively — swapping the entry array under
// concurrent readers is not worth the machinery — so size it for the
// workload up front (16 is a sensible floor; verification runs want
// 20+).
//
// Concurrency contract: all operations (ITE/And/Or/.../Exists/AndExists,
// the Par* variants, Size/SharedSize/Support, Transfer FROM the manager)
// may run concurrently from any number of goroutines. Mutating
// configuration (NewVar, SetNodeLimit, ApplyBudget, SetDeadline),
// reference counting (Protect/Unprotect), GC, CheckInvariants, and
// AndBounded/ITEBounded require quiescence: no operation in flight. The
// verify/core drivers satisfy this by construction — configuration and
// collection happen on the driver goroutine between pool joins.
func NewShared(workers int, cacheBits uint) *Manager {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &sharedState{
		fork:      par.NewForker(workers),
		forkDepth: defaultForkDepth,
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.buckets = make([]int32, 1<<7)
		for j := range sh.buckets {
			sh.buckets[j] = -1
		}
		sh.mask = uint32(len(sh.buckets) - 1)
		sh.chunks = make([]atomic.Pointer[nodeChunk], maxShardChunks)
		sh.free = -1
	}
	// The terminal lives at global index 0 = shard 0, local 0, exactly as
	// in sequential mode, so One/Zero keep their fixed encodings.
	sh0 := &s.shards[0]
	c0 := new(nodeChunk)
	c0[0] = node{level: terminalLevel, low: One, high: One, next: -1}
	sh0.chunks[0].Store(c0)
	sh0.top = 1
	sh0.count = 1
	s.cache.init(cacheBits)
	s.nodeCount.Store(1)
	s.peakNodes.Store(1)
	return &Manager{free: -1, shared: s}
}

// IsShared reports whether the Manager is in shared-memory concurrent
// mode. The core evaluation layer uses it to decide whether the
// SharedManager scoring path is applicable.
func (m *Manager) IsShared() bool { return m.shared != nil }

// SetForkDepth overrides the sequential cutoff of the parallel
// recursions (quiescent callers only; no-op on sequential managers).
// Depth 0 disables forking entirely, which is useful for isolating the
// data-structure layer in tests.
func (m *Manager) SetForkDepth(d int) {
	if m.shared != nil {
		m.shared.forkDepth = d
	}
}

// nodeAt resolves a global node index to its record: the shard is the
// low shardBits, the rest is the shard-local index.
func (s *sharedState) nodeAt(idx uint32) *node {
	return s.shards[idx&shardMask].nodeAt(idx >> shardBits)
}

// refOf builds the global Ref for a shard-local node.
func refOf(shard, local uint32) Ref {
	return Ref((local<<shardBits | shard) << 1)
}

// mk is the concurrent unique-table lookup-or-insert. The caller
// (Manager.mk) has already canonicalized: low != high and high is
// regular. Probe and insert happen under the owning shard's lock; the
// node-limit and deadline checks run before it so a resource panic can
// never unwind with a shard locked.
func (s *sharedState) mk(m *Manager, level uint32, low, high Ref) Ref {
	if m.nodeLimit > 0 && int64(s.nodeCount.Load()) >= int64(m.nodeLimit) {
		panic(&LimitError{Limit: m.nodeLimit, Live: int(s.nodeCount.Load())})
	}
	if !m.deadline.IsZero() || m.ctx != nil {
		if s.mkTick.Add(1)%deadlineStride == 0 {
			m.CheckBudget()
		}
	}

	h := hash3(level, low, high)
	shard := h & shardMask
	sh := &s.shards[shard]

	sh.mu.Lock()
	b := (h >> shardBits) & sh.mask
	for i := sh.buckets[b]; i >= 0; {
		n := sh.nodeAt(uint32(i))
		if n.level == level && n.low == low && n.high == high {
			sh.mu.Unlock()
			s.uniqueHits.Add(1)
			return refOf(shard, uint32(i))
		}
		i = n.next
	}

	local, ok := sh.allocLocked()
	if !ok {
		sh.mu.Unlock()
		panic(&LimitError{Limit: numShards * maxShardChunks * chunkSize,
			Live: int(s.nodeCount.Load())})
	}
	n := sh.nodeAt(uint32(local))
	*n = node{level: level, low: low, high: high, next: sh.buckets[b]}
	sh.buckets[b] = local
	sh.count++
	if sh.count > len(sh.buckets) {
		sh.growLocked()
	}
	sh.mu.Unlock()

	nc := s.nodeCount.Add(1)
	for {
		peak := s.peakNodes.Load()
		if nc <= peak || s.peakNodes.CompareAndSwap(peak, nc) {
			break
		}
	}
	return refOf(shard, uint32(local))
}

// allocLocked returns a fresh shard-local index (free list first),
// publishing a new chunk when the arena is exhausted. Returns ok=false
// when the shard is at absolute capacity.
func (sh *tableShard) allocLocked() (int32, bool) {
	if sh.free >= 0 {
		l := sh.free
		sh.free = sh.nodeAt(uint32(l)).next
		return l, true
	}
	l := sh.top
	ci := uint32(l) >> chunkBits
	if ci >= uint32(len(sh.chunks)) {
		return 0, false
	}
	if sh.chunks[ci].Load() == nil {
		sh.chunks[ci].Store(new(nodeChunk))
	}
	sh.top = l + 1
	return l, true
}

// growLocked doubles the shard's bucket array and rehashes its live
// nodes (the terminal is never chained).
func (sh *tableShard) growLocked() {
	nb := make([]int32, len(sh.buckets)*2)
	for i := range nb {
		nb[i] = -1
	}
	mask := uint32(len(nb) - 1)
	for l := int32(0); l < sh.top; l++ {
		n := sh.nodeAt(uint32(l))
		if n.level == freeLevel || n.level == terminalLevel {
			continue
		}
		b := (hash3(n.level, n.low, n.high) >> shardBits) & mask
		n.next = nb[b]
		nb[b] = l
	}
	sh.buckets = nb
	sh.mask = mask
}

// cacheLookup is the concurrent computed-cache probe; like its
// sequential counterpart it doubles as the strided deadline checkpoint.
func (s *sharedState) cacheLookup(m *Manager, op uint32, f, g, h Ref) (Ref, bool) {
	lk := s.lookups.Add(1)
	if lk%deadlineStride == 0 && (!m.deadline.IsZero() || m.ctx != nil) {
		m.CheckBudget()
	}
	c := &s.cache
	i := cacheHash(op, f, g, h) & c.mask
	mu := &c.locks[i&cacheStripeMask]
	mu.Lock()
	e := &c.entries[i]
	if e.epoch == c.cur && e.op == op && e.f == f && e.g == g && e.h == h {
		res := e.res
		mu.Unlock()
		s.hits.Add(1)
		return res, true
	}
	mu.Unlock()
	return 0, false
}

// cacheStore records a result; racing writers overwrite whole entries.
func (s *sharedState) cacheStore(op uint32, f, g, h, res Ref) {
	c := &s.cache
	i := cacheHash(op, f, g, h) & c.mask
	mu := &c.locks[i&cacheStripeMask]
	mu.Lock()
	c.entries[i] = cacheEntry{op: op, f: f, g: g, h: h, res: res, epoch: c.cur}
	mu.Unlock()
}

// beginOp / endOp bracket the parallel entry points for GC deferral.
func (s *sharedState) beginOp() { s.ops.Add(1) }
func (s *sharedState) endOp()   { s.ops.Add(-1) }

// GCDeferred returns how many collections were requested while parallel
// operations were in flight and therefore skipped (the caller retries at
// its next quiescent point). Always 0 on sequential managers.
func (m *Manager) GCDeferred() int {
	if s := m.shared; s != nil {
		return int(s.gcDeferred.Load())
	}
	return 0
}

// gc is the shared-mode collector: stop-the-world under the quiescence
// contract (it additionally refuses to run — deferring to the caller's
// next attempt — if any parallel entry point is still in flight). Mark
// from the refcounted roots, sweep each shard onto its free list,
// rebuild the shard's buckets, and invalidate the cache by epoch.
func (s *sharedState) gc(m *Manager) int {
	if s.ops.Load() != 0 {
		s.gcDeferred.Add(1)
		return 0
	}

	marked := make([][]bool, numShards)
	var stack []uint32
	for sid := range s.shards {
		sh := &s.shards[sid]
		marked[sid] = make([]bool, sh.top)
		for l := int32(0); l < sh.top; l++ {
			n := sh.nodeAt(uint32(l))
			if n.level != freeLevel && n.level != terminalLevel && n.refs > 0 {
				marked[sid][l] = true
				stack = append(stack, uint32(l)<<shardBits|uint32(sid))
			}
		}
	}
	marked[0][0] = true // terminal
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := s.nodeAt(idx)
		for _, ch := range [2]Ref{n.low, n.high} {
			ci := ch.index()
			sid, l := ci&shardMask, ci>>shardBits
			if !marked[sid][l] {
				marked[sid][l] = true
				stack = append(stack, ci)
			}
		}
	}

	freed := 0
	for sid := range s.shards {
		sh := &s.shards[sid]
		for i := range sh.buckets {
			sh.buckets[i] = -1
		}
		for l := int32(0); l < sh.top; l++ {
			n := sh.nodeAt(uint32(l))
			if n.level == freeLevel || n.level == terminalLevel {
				continue
			}
			if !marked[sid][l] {
				n.level = freeLevel
				n.next = sh.free
				sh.free = l
				sh.count--
				freed++
				continue
			}
			b := (hash3(n.level, n.low, n.high) >> shardBits) & sh.mask
			n.next = sh.buckets[b]
			sh.buckets[b] = l
		}
	}

	if freed > 0 {
		s.nodeCount.Add(int64(-freed))
		m.stats.FreedNodes += freed
		s.cache.clear()
		m.epoch++
	}
	m.stats.GCs++
	return freed
}

// memEstimate mirrors the sequential MemEstimate for shared mode: peak
// node records plus bucket arrays plus the striped cache.
func (s *sharedState) memEstimate() int {
	const nodeBytes = 20
	bucketWords := 0
	for i := range s.shards {
		bucketWords += len(s.shards[i].buckets)
	}
	return int(s.peakNodes.Load())*nodeBytes + bucketWords*4 +
		len(s.cache.entries)*cacheEntryBytes
}

// checkInvariants is the shared-mode structural validator behind
// Manager.CheckInvariants (quiescent callers only).
func (s *sharedState) checkInvariants(m *Manager) error {
	seen := make(map[[3]uint32]uint32)
	for sid := range s.shards {
		sh := &s.shards[sid]
		for l := int32(0); l < sh.top; l++ {
			n := sh.nodeAt(uint32(l))
			idx := int(uint32(l)<<shardBits | uint32(sid))
			if n.level == freeLevel {
				continue
			}
			if n.level == terminalLevel {
				if idx != 0 {
					return errInvariant("non-root terminal node", idx)
				}
				continue
			}
			if int(n.level) >= len(m.varNames) {
				return errInvariant("level beyond declared variables", idx)
			}
			if n.high.complement() {
				return errInvariant("complemented then-edge", idx)
			}
			if n.low == n.high {
				return errInvariant("redundant node (low == high)", idx)
			}
			for _, ch := range [2]Ref{n.low, n.high} {
				cn := s.nodeAt(ch.index())
				if cn.level == freeLevel {
					return errInvariant("edge to freed node", idx)
				}
				if cn.level != terminalLevel && cn.level <= n.level {
					return errInvariant("child level not strictly below parent", idx)
				}
			}
			key := [3]uint32{n.level, uint32(n.low), uint32(n.high)}
			if _, dup := seen[key]; dup {
				return errInvariant("duplicate triple in unique table", idx)
			}
			seen[key] = uint32(idx)
		}
	}
	return nil
}

// indexBound returns an exclusive upper bound on node indices currently
// in use, for slice-indexed per-node scratch (the Transfer memo).
func (m *Manager) indexBound() int {
	if s := m.shared; s != nil {
		bound := 1
		for sid := range s.shards {
			if t := int(s.shards[sid].top); t > 0 {
				if b := ((t-1)<<shardBits | sid) + 1; b > bound {
					bound = b
				}
			}
		}
		return bound
	}
	return len(m.nodes)
}
