package mem

import (
	"errors"
	"testing"
)

// TestChildForwardsToParent: child reservations are visible in the parent's
// total under the query identity, and releases flow back.
func TestChildForwardsToParent(t *testing.T) {
	root := NewManager(1000)
	q := root.Child("q1")
	c := &spillRec{name: "op", mgr: q}
	if err := q.Reserve(c, 400); err != nil {
		t.Fatal(err)
	}
	if root.Used() != 400 {
		t.Errorf("parent used = %d, want 400", root.Used())
	}
	if q.Used() != 400 {
		t.Errorf("child used = %d, want 400", q.Used())
	}
	q.Release(c, 150)
	if root.Used() != 250 || q.Used() != 250 {
		t.Errorf("after release: parent=%d child=%d, want 250/250", root.Used(), q.Used())
	}
	q.ReleaseAll(c)
	if root.Used() != 0 || q.Used() != 0 {
		t.Errorf("after releaseAll: parent=%d child=%d", root.Used(), q.Used())
	}
}

// TestChildSpillsOwnConsumersFirst: when a query's reservation pushes past
// the limit, its own consumers spill before a sibling query's.
func TestChildSpillsOwnConsumersFirst(t *testing.T) {
	root := NewManager(1000)
	q1 := root.Child("q1")
	q2 := root.Child("q2")

	other := &spillRec{name: "otherOp", freed: 1 << 40, mgr: q1}
	if err := q1.Reserve(other, 300); err != nil {
		t.Fatal(err)
	}
	mine := &spillRec{name: "myOp", freed: 1 << 40, mgr: q2}
	if err := q2.Reserve(mine, 600); err != nil {
		t.Fatal(err)
	}
	// q2 needs 200 more; without isolation the old policy would spill q1
	// (smallest sufficient = 300). With per-query isolation q2 spills its
	// own operator.
	extra := &spillRec{name: "myOp2", mgr: q2}
	if err := q2.Reserve(extra, 300); err != nil {
		t.Fatal(err)
	}
	if other.calls != 0 {
		t.Errorf("sibling query spilled (calls=%d); own consumers should spill first", other.calls)
	}
	if mine.calls == 0 {
		t.Error("own consumer never spilled")
	}
}

// TestChildRecursiveSpillOfSibling: when the pressuring query cannot free
// enough itself, a sibling query is spilled recursively.
func TestChildRecursiveSpillOfSibling(t *testing.T) {
	root := NewManager(1000)
	q1 := root.Child("q1")
	q2 := root.Child("q2")

	big := &spillRec{name: "bigOp", freed: 1 << 40, mgr: q1}
	if err := q1.Reserve(big, 900); err != nil {
		t.Fatal(err)
	}
	// q2 holds nothing, needs 500: only q1 can yield it.
	c := &spillRec{name: "newOp", mgr: q2}
	if err := q2.Reserve(c, 500); err != nil {
		t.Fatal(err)
	}
	if big.calls == 0 {
		t.Error("sibling was not recursively spilled")
	}
	if root.Used() > 1000 {
		t.Errorf("limit exceeded: %d", root.Used())
	}
}

// TestChildCloseReleasesWholeQuota: a dying query's entire reservation
// returns to the parent in one step, even with multiple live consumers.
func TestChildCloseReleasesWholeQuota(t *testing.T) {
	root := NewManager(1000)
	q := root.Child("q")
	a := &spillRec{name: "a", mgr: q}
	b := &spillRec{name: "b", mgr: q}
	_ = q.Reserve(a, 200)
	_ = q.Reserve(b, 300)
	if root.Used() != 500 {
		t.Fatalf("parent used = %d", root.Used())
	}
	q.Close()
	if root.Used() != 0 {
		t.Errorf("quota leaked after Close: parent used = %d", root.Used())
	}
	if q.Used() != 0 {
		t.Errorf("child used = %d after Close", q.Used())
	}
}

// TestChildPeakBytes tracks the per-query high-water mark.
func TestChildPeakBytes(t *testing.T) {
	root := NewManager(0)
	q := root.Child("q")
	c := &spillRec{name: "c", mgr: q}
	_ = q.Reserve(c, 700)
	q.Release(c, 600)
	_ = q.Reserve(c, 100)
	if q.PeakBytes() != 700 {
		t.Errorf("peak = %d, want 700", q.PeakBytes())
	}
}

// TestChildOOMSurfaces: an unsatisfiable child reservation reports OOM.
func TestChildOOMSurfaces(t *testing.T) {
	root := NewManager(100)
	q := root.Child("q")
	c := &spillRec{name: "c", mgr: q} // cannot free anything
	if err := q.Reserve(c, 50); err != nil {
		t.Fatal(err)
	}
	err := q.Reserve(c, 100)
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("err = %v, want OOMError", err)
	}
}

// TestAvailable resolves at the root for child scopes.
func TestAvailable(t *testing.T) {
	root := NewManager(1000)
	q := root.Child("q")
	c := &spillRec{name: "c", mgr: q}
	_ = q.Reserve(c, 400)
	if got := q.Available(); got != 600 {
		t.Errorf("child available = %d, want 600", got)
	}
	if got := root.Available(); got != 600 {
		t.Errorf("root available = %d, want 600", got)
	}
}

// TestTryReserveSpillsNobody: TryReserve takes only what is free — under the
// root's limit and a query scope's soft limit — and never asks a consumer,
// its own or a sibling's, to spill.
func TestTryReserveSpillsNobody(t *testing.T) {
	root := NewManager(1000)
	q1, q2 := root.Child("q1"), root.Child("q2")
	op := &spillRec{name: "op", freed: 1 << 40, mgr: q1}
	sib := &spillRec{name: "sib", freed: 1 << 40, mgr: q2}
	if err := q1.Reserve(op, 300); err != nil {
		t.Fatal(err)
	}
	if err := q2.Reserve(sib, 300); err != nil {
		t.Fatal(err)
	}
	keep := &spillRec{name: "keep", mgr: q1}
	if !q1.TryReserve(keep, 400) || q1.UsedBy(keep) != 400 || q1.Used() != 700 || root.Used() != 1000 {
		t.Fatalf("free bytes not taken: keep=%d q1=%d root=%d", q1.UsedBy(keep), q1.Used(), root.Used())
	}
	if q1.PeakBytes() != 700 {
		t.Errorf("peak = %d, want 700", q1.PeakBytes())
	}
	if q1.TryReserve(keep, 1) || op.calls != 0 || sib.calls != 0 || root.Used() != 1000 {
		t.Fatalf("over the limit: spills own=%d sibling=%d, root=%d", op.calls, sib.calls, root.Used())
	}
	q1.Release(keep, 400)
	q1.SetSoftLimit(350)
	if q1.TryReserve(keep, 100) || op.calls != 0 {
		t.Fatal("TryReserve went past the soft limit, or spilled toward it")
	}
	if !q1.TryReserve(keep, 50) || root.Used() != 650 {
		t.Fatalf("within the soft limit: root=%d", root.Used())
	}
	q1.Close()
	q2.Close()
	if root.Used() != 0 {
		t.Errorf("root used = %d after both queries closed", root.Used())
	}
}
