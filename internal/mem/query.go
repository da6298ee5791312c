package mem

import "fmt"

// Per-query memory isolation (§5.3 in a multi-tenant service): each query
// gets a *child* Manager scoped under the session's Manager. Operators keep
// using the familiar Reserve/Release/ReleaseAll API against the child; the
// child forwards every byte to the parent under a single consumer identity,
// so:
//
//   - one query's pressure spills its *own* consumers first (the parent's
//     victim policy prefers the requesting query when it holds enough);
//   - a sibling query can still be chosen as a recursive-spill victim when
//     the pressuring query cannot free enough on its own;
//   - a query's death releases its whole quota atomically (Close), so no
//     partial reservations leak past query lifetime.

// childConsumer is the query's single identity on the parent manager.
type childConsumer struct {
	child *Manager
	name  string
}

// Name implements Consumer.
func (c *childConsumer) Name() string { return c.name }

// Spill implements Consumer: the parent asks the query to free n bytes, and
// the query spills among its own operators using the standard victim policy.
func (c *childConsumer) Spill(n int64) (int64, error) { return c.child.spillOwn(n) }

// Child creates a per-query memory scope under m. The returned Manager is
// used exactly like a root manager by operators; call Close when the query
// ends to release any remaining quota atomically.
func (m *Manager) Child(name string) *Manager {
	if m.parent != nil {
		panic("mem: nested query scopes are not supported")
	}
	c := &Manager{
		limit:    m.limit,
		reserved: make(map[Consumer]int64),
		parent:   m,
	}
	c.self = &childConsumer{child: c, name: "query:" + name}
	return c
}

// Close releases the query's entire remaining reservation back to the
// parent in one step (a query's death frees its whole quota atomically) and
// reports the query's memory peak to the root metrics bundle.
// No-op on root managers.
func (m *Manager) Close() {
	if m.parent == nil {
		return
	}
	m.mu.Lock()
	total := m.total
	peak := m.peak
	m.total = 0
	m.reserved = make(map[Consumer]int64)
	m.mu.Unlock()
	if total > 0 {
		m.parent.Release(m.self, total)
	}
	if met := m.rootMetrics(); met != nil {
		met.QueryPeakBytes.Observe(peak)
	}
}

// PeakBytes reports the manager's reservation high-water mark.
func (m *Manager) PeakBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

// Available reports the bytes still reservable under the limit (resolved at
// the root for query scopes). A point-in-time value: concurrent queries may
// reserve or spill at any moment.
func (m *Manager) Available() int64 {
	if m.parent != nil {
		return m.parent.Available()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.limit - m.total
}

// SetSoftLimit installs a degraded memory grant on a query scope: once the
// scope's reservation would exceed n bytes, further reservations first ask
// the scope's own consumers to spill the overage (spill-first execution)
// before growing. The limit is advisory — if the scope's consumers cannot
// free enough, the reservation still proceeds against the shared limit —
// so degradation shrinks a query's footprint without ever failing it.
// n <= 0 clears the limit. No-op on root managers.
func (m *Manager) SetSoftLimit(n int64) {
	if m.parent != nil {
		m.soft.Store(n)
	}
}

// SoftLimit reports the scope's degraded grant (0 = none).
func (m *Manager) SoftLimit() int64 { return m.soft.Load() }

// reserveChild is the child-manager Reserve path: spill own consumers
// down toward the soft limit when one is set (graceful degradation), then
// acquire from the parent under the query's identity and record locally.
func (m *Manager) reserveChild(c Consumer, n int64) error {
	if soft := m.soft.Load(); soft > 0 {
		m.mu.Lock()
		over := m.total + n - soft
		m.mu.Unlock()
		if over > 0 {
			// Best effort: a failed or short spill never fails the
			// reservation; the shared limit below remains the backstop.
			_, _ = m.spillOwn(over)
		}
	}
	if err := m.parent.Reserve(m.self, n); err != nil {
		return fmt.Errorf("mem: query %s: %w", m.self.Name(), err)
	}
	m.mu.Lock()
	m.addLocked(c, n)
	m.mu.Unlock()
	return nil
}

// spillOwn frees at least `need` bytes by spilling the query's own
// consumers, preferring the standard victim policy (smallest sufficient,
// else largest). Called by the parent when this query is the victim —
// either under its own pressure (own-first isolation) or a sibling's
// (recursive spill).
func (m *Manager) spillOwn(need int64) (int64, error) {
	var freed int64
	var spent map[Consumer]bool // victims that freed nothing
	for freed < need {
		m.mu.Lock()
		victim := m.pickVictimLocked(nil, need-freed, spent)
		m.mu.Unlock()
		if victim == nil {
			break
		}
		f, err := victim.Spill(need - freed)
		if err != nil {
			return freed, err
		}
		if f <= 0 {
			if spent == nil {
				spent = map[Consumer]bool{}
			}
			spent[victim] = true
			continue
		}
		freed += f
		m.mu.Lock()
		m.SpillCount++
		m.SpilledBytes += f
		m.mu.Unlock()
		// Root-path spills are mirrored inside Reserve; child-scope spills
		// happen here, so mirror them to the root bundle explicitly.
		if met := m.rootMetrics(); met != nil {
			met.Spills.Inc()
			met.SpilledBytes.Add(f)
		}
	}
	return freed, nil
}
