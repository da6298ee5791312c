package main

import (
	"math"
	"sort"
	"strings"

	"photon/internal/driver"
)

// minTailSamples is how many samples must lie beyond a reported tail
// percentile. With fewer the estimate is one or two outliers, not a
// percentile, and run-to-run spread swamps any regression bound.
const minTailSamples = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of an
// ascending slice. ok is false — and the value must not be reported — when
// fewer than minTailSamples samples lie beyond the returned rank.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTailSamples {
		return 0, false
	}
	return sorted[rank-1], true
}

// median returns the middle value of v (mean of the two middle values for
// an even count); 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// geomean returns the geometric mean of strictly positive values.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// passThrough reports whether an operator's timer covers only its own
// per-batch work. The engine's timers are mixed: Filter, Project,
// RuntimeFilter, RuntimeFilterBuild and the untimed Limit wrap processBatch
// alone, while HashAgg, HashJoin, Sort, TopK and ShuffleWrite time a Next
// that pulls their children, so their TimeNanos is inclusive.
func passThrough(name string) bool {
	for _, p := range []string{"Filter(", "Project", "RuntimeFilter", "Limit("} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// selfNanos computes each operator's self time from one stage's
// Depth-ordered (pre-order) OpProfile rows. An inclusive-timed operator's
// self time is its TimeNanos minus the inclusive time of its children; a
// pass-through operator's TimeNanos already is self time and its inclusive
// time adds its children's. Negative remainders (clock skew between merged
// tasks) clamp to zero.
func selfNanos(ops []driver.OpProfile) []int64 {
	self := make([]int64, len(ops))
	incl := make([]int64, len(ops))
	// Children follow their parent in pre-order, so walking backwards
	// finishes every child before its parent.
	for i := len(ops) - 1; i >= 0; i-- {
		var kids int64
		for j := i + 1; j < len(ops) && ops[j].Depth > ops[i].Depth; j++ {
			if ops[j].Depth == ops[i].Depth+1 {
				kids += incl[j]
			}
		}
		if passThrough(ops[i].Name) {
			self[i] = ops[i].TimeNanos
			incl[i] = ops[i].TimeNanos + kids
		} else {
			self[i] = max(ops[i].TimeNanos-kids, 0)
			incl[i] = max(ops[i].TimeNanos, kids)
		}
	}
	return self
}

// criticalPath returns the stages on the longest chain of stage walls from
// the root stage down through the stages its exchange reads consume, root
// first, and the chain's length: a consumer stage starts only once its
// producers have committed, and sibling producers run concurrently.
func criticalPath(q *driver.QueryProfile) ([]*driver.StageProfile, int64) {
	if q == nil {
		return nil, 0
	}
	onPath := map[int]bool{} // guards against a malformed (cyclic) profile
	var from func(id int) ([]*driver.StageProfile, int64)
	from = func(id int) ([]*driver.StageProfile, int64) {
		st := q.Stage(id)
		if st == nil || onPath[id] {
			return nil, 0
		}
		onPath[id] = true
		defer delete(onPath, id)
		var best []*driver.StageProfile
		var bestNs int64
		for i := range st.Ops {
			if u := st.Ops[i].Upstream; u >= 0 {
				if p, ns := from(u); ns > bestNs {
					best, bestNs = p, ns
				}
			}
		}
		return append([]*driver.StageProfile{st}, best...), st.WallNanos + bestNs
	}
	return from(q.Root)
}
