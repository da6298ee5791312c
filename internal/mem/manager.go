package mem

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"photon/internal/fault"
)

// Consumer is a memory-consuming operator registered with the Manager.
// Spill asks the consumer to release at least n bytes (by writing state to
// disk); it returns the bytes actually freed. A consumer may be asked to
// spill on behalf of another consumer's reservation — the "recursive spill"
// of §5.3.
type Consumer interface {
	Name() string
	Spill(n int64) (int64, error)
}

// Manager is the unified memory manager shared by Photon operators, the
// baseline row engine, and user code, mirroring Spark's unified memory
// manager. It separates reservations from allocations: an operator first
// Reserves memory (which may force spilling somewhere in the system) and can
// then allocate up to its reservation without any further risk of spilling
// (§5.3's reserve phase / allocate phase split).
type Manager struct {
	mu       sync.Mutex
	limit    int64
	reserved map[Consumer]int64
	total    int64
	peak     int64

	// Per-query scoping (see query.go): a child manager forwards its
	// reservations to parent under the self identity.
	parent *Manager
	self   *childConsumer
	// soft, when > 0 on a child scope, is the query's degraded grant:
	// reservations pushing the scope past it spill the scope's own
	// consumers first instead of growing (see SetSoftLimit). Advisory —
	// it shrinks footprint under pressure but never fails a reservation.
	soft atomic.Int64

	// Metrics.
	SpillCount   int64
	SpilledBytes int64

	// metrics, when set via Instrument (root managers only), mirrors
	// reservation/spill/OOM activity into the obs registry.
	metrics *Metrics
}

// OOMError is returned when a reservation cannot be satisfied even after
// spilling every eligible consumer.
type OOMError struct {
	Requested int64
	Available int64
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("mem: out of memory: requested %d bytes, %d available after spilling", e.Requested, e.Available)
}

// NewManager returns a manager enforcing the given byte limit
// (limit <= 0 means effectively unlimited).
func NewManager(limit int64) *Manager {
	if limit <= 0 {
		limit = 1 << 62
	}
	return &Manager{limit: limit, reserved: make(map[Consumer]int64)}
}

// Limit returns the configured memory limit in bytes.
func (m *Manager) Limit() int64 { return m.limit }

// Limited reports whether the manager enforces a real memory bound (an
// "unlimited" manager carries the 1<<62 sentinel limit). Spilling can only
// trigger under a real bound, which lets the small-query fast path skip
// spill-directory setup entirely for unlimited sessions.
func (m *Manager) Limited() bool { return m.limit < 1<<62 }

// Used returns the total reserved bytes.
func (m *Manager) Used() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// UsedBy returns the bytes reserved by one consumer.
func (m *Manager) UsedBy(c Consumer) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reserved[c]
}

// Reserve acquires n bytes for consumer c, spilling other consumers (or c
// itself) if needed. The spill victim selection follows open-source Spark's
// policy (§5.3): sort consumers from least to most allocated and spill the
// first that holds at least the missing bytes; if none does, spill the
// largest consumers until enough is freed. This minimizes the number of
// spills while avoiding spilling more data than necessary.
func (m *Manager) Reserve(c Consumer, n int64) error {
	if n < 0 {
		panic("mem: negative reservation")
	}
	if m.parent != nil {
		return m.reserveChild(c, n)
	}
	// Failpoint: the root reserve path (child scopes forward here, so one
	// logical reservation fires at most once). Injected transient failures
	// surface as retryable task errors.
	if err := fault.Hit(nil, fault.MemReserve); err != nil {
		return err
	}
	m.mu.Lock()
	met := m.metrics
	if met != nil {
		met.ReserveCalls.Inc()
	}
	var spent map[Consumer]bool // victims that freed nothing
	for m.total+n > m.limit {
		need := m.total + n - m.limit
		victim := m.pickVictimLocked(c, need, spent)
		if victim == nil {
			avail := m.limit - m.total
			m.mu.Unlock()
			if met != nil {
				met.OOMs.Inc()
			}
			return &OOMError{Requested: n, Available: avail}
		}
		// Release the lock during the spill: the victim will call Release
		// as it frees memory.
		m.mu.Unlock()
		freed, err := victim.Spill(need)
		if err != nil {
			return fmt.Errorf("mem: spill of %s failed: %w", victim.Name(), err)
		}
		m.mu.Lock()
		m.SpillCount++
		m.SpilledBytes += freed
		if met != nil {
			met.Spills.Inc()
			met.SpilledBytes.Add(freed)
		}
		if freed <= 0 {
			// The victim could not free anything (an operator whose state
			// is in use): ask the next one.
			if spent == nil {
				spent = map[Consumer]bool{}
			}
			spent[victim] = true
		}
	}
	m.addLocked(c, n)
	m.mu.Unlock()
	return nil
}

// addLocked records n more bytes reserved by c.
func (m *Manager) addLocked(c Consumer, n int64) {
	m.reserved[c] += n
	m.total += n
	if m.total > m.peak {
		m.peak = m.total
	}
}

// TryReserve acquires n bytes for c only if they are free right now: nobody
// is asked to spill to make room, and a query scope stays within its soft
// limit. For memory that is kept because it is there, not because it is
// needed — the holder has a cheaper place to put the data than any victim.
func (m *Manager) TryReserve(c Consumer, n int64) bool {
	if m.parent != nil {
		if soft := m.soft.Load(); soft > 0 && m.Used()+n > soft {
			return false
		}
		if !m.parent.TryReserve(m.self, n) {
			return false
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.parent == nil && m.total+n > m.limit {
		return false
	}
	m.addLocked(c, n)
	return true
}

// pickVictimLocked chooses a spill victim for a reservation that is `need`
// bytes short. It prefers, among consumers sorted by ascending reservation,
// the first holding at least `need`; otherwise the largest consumer.
// Consumers with zero reservation, and those in skip, are passed over. The
// requester itself is eligible ("self-spill" and recursive spill both occur
// in practice).
func (m *Manager) pickVictimLocked(requester Consumer, need int64, skip map[Consumer]bool) Consumer {
	type entry struct {
		c Consumer
		n int64
	}
	var entries []entry
	for c, n := range m.reserved {
		if n > 0 && !skip[c] {
			entries = append(entries, entry{c, n})
		}
	}
	if len(entries) == 0 {
		return nil
	}
	// Per-query isolation: a query under its own memory pressure spills its
	// own consumers before touching sibling queries (query.go). The
	// preference applies only when the query holds enough to cover the
	// shortfall; otherwise the standard policy may pick a sibling
	// (recursive spill across queries, §5.3).
	if _, isQuery := requester.(*childConsumer); isQuery && m.reserved[requester] >= need && !skip[requester] {
		return requester
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].n != entries[j].n {
			return entries[i].n < entries[j].n
		}
		return entries[i].c.Name() < entries[j].c.Name()
	})
	for _, e := range entries {
		if e.n >= need {
			return e.c
		}
	}
	return entries[len(entries)-1].c
}

// Release returns n bytes of c's reservation to the manager.
func (m *Manager) Release(c Consumer, n int64) {
	m.mu.Lock()
	cur := m.reserved[c]
	if n > cur {
		n = cur
	}
	m.reserved[c] = cur - n
	if m.reserved[c] == 0 {
		delete(m.reserved, c)
	}
	m.total -= n
	parent, self := m.parent, m.self
	m.mu.Unlock()
	if parent != nil && n > 0 {
		parent.Release(self, n)
	}
}

// ReleaseAll returns c's entire reservation (called on operator close, tying
// operator state to query lifetime rather than a GC generation, §5.4).
func (m *Manager) ReleaseAll(c Consumer) {
	m.mu.Lock()
	n := m.reserved[c]
	m.total -= n
	delete(m.reserved, c)
	parent, self := m.parent, m.self
	m.mu.Unlock()
	if parent != nil && n > 0 {
		parent.Release(self, n)
	}
}

// FuncConsumer adapts a name and a spill function into a Consumer.
type FuncConsumer struct {
	ConsumerName string
	SpillFunc    func(n int64) (int64, error)
}

// Name implements Consumer.
func (f *FuncConsumer) Name() string { return f.ConsumerName }

// Spill implements Consumer.
func (f *FuncConsumer) Spill(n int64) (int64, error) {
	if f.SpillFunc == nil {
		return 0, nil
	}
	return f.SpillFunc(n)
}
