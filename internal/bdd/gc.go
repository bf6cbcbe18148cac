package bdd

// Reference counting and garbage collection.
//
// The collector runs only when explicitly invoked (typically between
// traversal iterations), never in the middle of an operation, so
// intermediate results of a running recursion can never be reclaimed out
// from under it. Roots are the externally reference-counted nodes.

// Protect increments the external reference count of f's node and returns
// f for convenient chaining. Constants are always live.
func (m *Manager) Protect(f Ref) Ref {
	if !f.IsConst() {
		m.at(f.index()).refs++
	}
	return f
}

// ProtectPermanent marks f as a permanent GC root: the first call per
// (Manager, Ref) increments the external reference count, repeated calls
// are no-ops. Use it for values that must survive every collection for
// the manager's lifetime — machine next-state functions, property BDDs —
// where the caller re-registers the same Refs on every run: repeated
// runs then cannot inflate the refcount without bound. Permanent roots
// are never released (there is no matching Unprotect).
func (m *Manager) ProtectPermanent(f Ref) Ref {
	if f.IsConst() {
		return f
	}
	if m.permRoots == nil {
		m.permRoots = make(map[Ref]struct{})
	}
	if _, done := m.permRoots[f]; done {
		return f
	}
	m.permRoots[f] = struct{}{}
	m.at(f.index()).refs++
	return f
}

// ExternalRefs returns f's external reference count — its strength as a
// GC root. Constants report 0 (they are unconditionally live). Intended
// for tests asserting Protect/Unprotect balance across runs.
func (m *Manager) ExternalRefs(f Ref) int {
	if f.IsConst() {
		return 0
	}
	return int(m.at(f.index()).refs)
}

// Unprotect decrements the external reference count of f's node. It
// panics if the count would go negative, which indicates a Protect /
// Unprotect imbalance in the caller.
func (m *Manager) Unprotect(f Ref) {
	if f.IsConst() {
		return
	}
	n := m.at(f.index())
	if n.refs == 0 {
		panic("bdd: Unprotect without matching Protect")
	}
	n.refs--
}

// GC reclaims every node not reachable from a protected root, returning
// the number of nodes freed. The computed cache is cleared (an epoch
// bump; see computedCache.clear) and the unique table rebuilt;
// long-lived Substitution memos notice via the epoch.
func (m *Manager) GC() int {
	marked := make([]bool, len(m.nodes))
	marked[0] = true // terminal

	var stack []uint32
	for i := 1; i < len(m.nodes); i++ {
		n := &m.nodes[i]
		if n.level != freeLevel && n.refs > 0 {
			marked[i] = true
			stack = append(stack, uint32(i))
		}
	}
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &m.nodes[idx]
		for _, ch := range [2]Ref{n.low, n.high} {
			ci := ch.index()
			if !marked[ci] {
				marked[ci] = true
				stack = append(stack, ci)
			}
		}
	}

	freed := 0
	for i := 1; i < len(m.nodes); i++ {
		n := &m.nodes[i]
		if n.level == freeLevel || marked[i] {
			continue
		}
		n.level = freeLevel
		n.next = m.free
		m.free = int32(i)
		m.freeCount++
		freed++
	}

	if freed > 0 {
		m.stats.Nodes -= freed
		m.stats.FreedNodes += freed
		m.rebuildUnique()
		m.cache.clear()
		m.epoch++
	}
	m.stats.GCs++
	return freed
}

// rebuildUnique rehashes all live nodes after a sweep.
func (m *Manager) rebuildUnique() {
	for i := range m.buckets {
		m.buckets[i] = -1
	}
	for i := 1; i < len(m.nodes); i++ {
		n := &m.nodes[i]
		if n.level == freeLevel {
			continue
		}
		h := hash3(n.level, n.low, n.high) & m.bucketMask
		n.next = m.buckets[h]
		m.buckets[h] = int32(i)
	}
}

// CheckInvariants validates the structural invariants of the node pool:
// canonical complement edges, ordered levels, no duplicate triples, and
// free-list consistency. Intended for tests; cost is linear in the pool.
func (m *Manager) CheckInvariants() error {
	seen := make(map[[3]uint32]int32, len(m.nodes))
	for i := 1; i < len(m.nodes); i++ {
		n := &m.nodes[i]
		if n.level == freeLevel {
			continue
		}
		if n.level == terminalLevel {
			return errInvariant("non-root terminal node", i)
		}
		if int(n.level) >= len(m.varNames) {
			return errInvariant("level beyond declared variables", i)
		}
		if n.high.complement() {
			return errInvariant("complemented then-edge", i)
		}
		if n.low == n.high {
			return errInvariant("redundant node (low == high)", i)
		}
		for _, ch := range [2]Ref{n.low, n.high} {
			cn := &m.nodes[ch.index()]
			if cn.level == freeLevel {
				return errInvariant("edge to freed node", i)
			}
			if cn.level != terminalLevel && cn.level <= n.level {
				return errInvariant("child level not strictly below parent", i)
			}
		}
		key := [3]uint32{n.level, uint32(n.low), uint32(n.high)}
		if _, dup := seen[key]; dup {
			return errInvariant("duplicate triple in unique table", i)
		}
		seen[key] = int32(i)
	}
	return nil
}

type invariantError struct {
	msg  string
	node int
}

func (e *invariantError) Error() string {
	return "bdd: invariant violated: " + e.msg
}

func errInvariant(msg string, node int) error {
	return &invariantError{msg: msg, node: node}
}
