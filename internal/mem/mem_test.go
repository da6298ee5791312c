package mem

import (
	"testing"

	"photon/internal/types"
)

func TestArenaAllocAndReset(t *testing.T) {
	a := NewArena(64)
	b1 := a.Alloc(10)
	if len(b1) != 10 {
		t.Fatalf("alloc len = %d", len(b1))
	}
	b2 := a.Copy([]byte("hello"))
	if string(b2) != "hello" {
		t.Fatalf("copy = %q", b2)
	}
	if a.Used() != 15 {
		t.Errorf("used = %d", a.Used())
	}
	// Oversized allocation gets its own chunk.
	big := a.Alloc(1000)
	if len(big) != 1000 {
		t.Fatal("big alloc failed")
	}
	if a.Footprint() < 1000 {
		t.Error("footprint should include big chunk")
	}
	a.Reset()
	if a.Used() != 0 {
		t.Error("reset did not clear used")
	}
	// After reset, allocations still work and reuse the retained chunk.
	b3 := a.Alloc(8)
	if len(b3) != 8 {
		t.Fatal("post-reset alloc failed")
	}
}

func TestArenaSliceIsolation(t *testing.T) {
	a := NewArena(0)
	x := a.Alloc(4)
	y := a.Alloc(4)
	copy(x, "aaaa")
	copy(y, "bbbb")
	if string(x) != "aaaa" {
		t.Error("adjacent allocations overlap")
	}
	// Appending to x must not clobber y (three-index slice).
	x = append(x, 'z')
	if string(y) != "bbbb" {
		t.Error("append to earlier allocation clobbered later one")
	}
}

func TestBatchPoolMRU(t *testing.T) {
	p := NewBatchPool(16)
	s := types.NewSchema(types.Field{Name: "x", Type: types.Int64Type})
	b1 := p.Get(s)
	b2 := p.Get(s)
	if p.Misses != 2 {
		t.Errorf("misses = %d", p.Misses)
	}
	p.Put(b1)
	p.Put(b2)
	// MRU: most recently returned comes back first.
	got := p.Get(s)
	if got != b2 {
		t.Error("pool is not MRU")
	}
	if p.Hits != 1 {
		t.Errorf("hits = %d", p.Hits)
	}
	// Reused batch is reset.
	if got.NumRows != 0 || got.Sel != nil {
		t.Error("reused batch not reset")
	}
}

func TestBatchPoolDisabled(t *testing.T) {
	p := NewBatchPool(16)
	p.Disabled = true
	s := types.NewSchema(types.Field{Name: "x", Type: types.Int64Type})
	b := p.Get(s)
	p.Put(b)
	if got := p.Get(s); got == b {
		t.Error("disabled pool returned cached batch")
	}
}

type spillRec struct {
	name  string
	freed int64
	mgr   *Manager
	calls int
}

func (s *spillRec) Name() string { return s.name }
func (s *spillRec) Spill(n int64) (int64, error) {
	s.calls++
	f := min(s.freed, s.mgr.UsedBy(s))
	s.mgr.Release(s, f)
	return f, nil
}

func TestManagerReserveRelease(t *testing.T) {
	m := NewManager(1000)
	c := &spillRec{name: "a", mgr: m}
	if err := m.Reserve(c, 600); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 600 {
		t.Errorf("used = %d", m.Used())
	}
	m.Release(c, 100)
	if m.Used() != 500 {
		t.Errorf("used after release = %d", m.Used())
	}
	m.ReleaseAll(c)
	if m.Used() != 0 {
		t.Errorf("used after releaseAll = %d", m.Used())
	}
}

func TestSpillPolicyPicksSmallestSufficient(t *testing.T) {
	m := NewManager(1000)
	small := &spillRec{name: "small", freed: 1 << 40, mgr: m}
	big := &spillRec{name: "big", freed: 1 << 40, mgr: m}
	if err := m.Reserve(small, 300); err != nil {
		t.Fatal(err)
	}
	if err := m.Reserve(big, 600); err != nil {
		t.Fatal(err)
	}
	// Need 200 more; policy spills the *smallest* consumer holding >= 200,
	// which is `small` (300), not `big` (600).
	newC := &spillRec{name: "new", mgr: m}
	if err := m.Reserve(newC, 300); err != nil {
		t.Fatal(err)
	}
	if small.calls != 1 {
		t.Errorf("small.calls = %d, want 1", small.calls)
	}
	if big.calls != 0 {
		t.Errorf("big.calls = %d, want 0", big.calls)
	}
	if m.SpillCount != 1 {
		t.Errorf("SpillCount = %d", m.SpillCount)
	}
}

func TestSpillFallsBackToLargest(t *testing.T) {
	m := NewManager(1000)
	a := &spillRec{name: "a", freed: 1 << 40, mgr: m}
	b := &spillRec{name: "b", freed: 1 << 40, mgr: m}
	_ = m.Reserve(a, 300)
	_ = m.Reserve(b, 400)
	// Need 700: no single consumer holds 700, so spill the largest (b),
	// then the remaining shortfall comes from a.
	c := &spillRec{name: "c", mgr: m}
	if err := m.Reserve(c, 1000); err != nil {
		t.Fatal(err)
	}
	if b.calls == 0 {
		t.Error("largest consumer was not spilled")
	}
}

func TestOOMWhenNothingToSpill(t *testing.T) {
	m := NewManager(100)
	c := &spillRec{name: "c", mgr: m} // freed = 0: cannot spill
	if err := m.Reserve(c, 50); err != nil {
		t.Fatal(err)
	}
	err := m.Reserve(c, 100)
	if err == nil {
		t.Fatal("expected OOM")
	}
	if _, ok := err.(*OOMError); !ok {
		t.Errorf("error type = %T", err)
	}
}

// TestSpillPassesOverVictimThatFreesNothing: a consumer whose state is in
// use frees nothing when asked; the reservation asks the next victim instead
// of failing.
func TestSpillPassesOverVictimThatFreesNothing(t *testing.T) {
	m := NewManager(1000)
	busy := &spillRec{name: "busy", mgr: m} // freed = 0
	idle := &spillRec{name: "idle", freed: 1 << 40, mgr: m}
	if err := m.Reserve(busy, 400); err != nil {
		t.Fatal(err)
	}
	if err := m.Reserve(idle, 500); err != nil {
		t.Fatal(err)
	}
	// Need 300 more: the smallest sufficient victim is busy, which frees
	// nothing; idle then spills.
	if err := m.Reserve(&spillRec{name: "new", mgr: m}, 400); err != nil {
		t.Fatal(err)
	}
	if busy.calls != 1 || idle.calls != 1 {
		t.Errorf("spill calls busy=%d idle=%d, want 1 and 1", busy.calls, idle.calls)
	}
}

func TestRecursiveSpillSelfVictim(t *testing.T) {
	// A consumer's own reservation can be the spill victim ("self-spill").
	m := NewManager(100)
	c := &spillRec{name: "c", freed: 1 << 40, mgr: m}
	if err := m.Reserve(c, 90); err != nil {
		t.Fatal(err)
	}
	if err := m.Reserve(c, 90); err != nil {
		t.Fatal(err)
	}
	if c.calls != 1 {
		t.Errorf("self-spill calls = %d", c.calls)
	}
}

func TestFuncConsumer(t *testing.T) {
	called := int64(0)
	f := &FuncConsumer{ConsumerName: "fn", SpillFunc: func(n int64) (int64, error) {
		called = n
		return n, nil
	}}
	if f.Name() != "fn" {
		t.Error("name")
	}
	freed, err := f.Spill(42)
	if err != nil || freed != 42 || called != 42 {
		t.Error("spill func not wired")
	}
	empty := &FuncConsumer{ConsumerName: "e"}
	if freed, _ := empty.Spill(10); freed != 0 {
		t.Error("nil spill func should free 0")
	}
}

func TestUnlimitedManager(t *testing.T) {
	m := NewManager(0)
	c := &spillRec{name: "c", mgr: m}
	if err := m.Reserve(c, 1<<50); err != nil {
		t.Fatal("unlimited manager refused reservation:", err)
	}
}
