package photon

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"photon/internal/expr"
	"photon/internal/sql"
	"photon/internal/sql/catalyst"
)

// This file is the session's compile phase of the prepare/bind/execute
// lifecycle: queries are parameterized (literals extracted into slots),
// normalized into a cache key, and compiled once per shape into an
// immutable catalyst.CompiledQuery held in a bounded LRU. Subsequent
// executions of the same shape bind fresh values into a private deep copy
// of the cached plan — no re-parse, re-analysis, re-optimization, or
// re-classification. Binding never re-optimizes: a value binds against a
// cached plan only when its self-derived type matches the compile-time
// value's, which makes every downstream type derivation (and therefore
// the optimized plan) a pure function of the query shape.

// DefaultPlanCacheSize is the per-session plan-cache entry cap when
// Config.PlanCacheSize is 0.
const DefaultPlanCacheSize = 256

// DefaultFastPathRows is the base-table input-row ceiling for the
// small-query fast path.
const DefaultFastPathRows = 1 << 20

// boundQuery is one execution's plan and route: a private plan ready for
// driver.Run and the fast-path decision of its compiled classification.
type boundQuery struct {
	plan     sql.LogicalPlan
	cached   bool   // bound from a plan-cache entry
	fastPath bool   // single-fragment small input: one task, no stage planning
	norm     string // normalized SQL ("" when the shape didn't normalize)
}

// planCacheEntry is one cached shape. cq == nil is a negative entry: the
// shape failed parameterized compilation once but compiles fine verbatim
// (e.g. a literal whose extraction confuses structural GROUP BY matching),
// so later executions skip straight to the verbatim compile.
type planCacheEntry struct {
	key  string
	cq   *catalyst.CompiledQuery
	gen  int64 // catalog generation the entry was compiled against
	elem *list.Element
}

// planCache is a bounded LRU keyed on (normalized SQL, planner-config
// fingerprint), entries stamped with the catalog generation they compiled
// against and dropped on mismatch (Delta snapshot refresh re-registers
// the table and bumps the generation).
type planCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*planCacheEntry
	lru     *list.List // front = most recently used
}

func newPlanCache(max int) *planCache {
	return &planCache{max: max, entries: make(map[string]*planCacheEntry), lru: list.New()}
}

// lookup returns the compiled query of the live entry for key (nil for a
// negative entry), invalidating (and reporting) a stale-generation entry.
// The pointer is read under the lock and a CompiledQuery is immutable, so
// the caller binds against it with no lock held while insert replaces the
// entry's.
func (c *planCache) lookup(key string, gen int64) (cq *catalyst.CompiledQuery, ok, invalidated bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, false, false
	}
	if e.gen != gen {
		c.lru.Remove(e.elem)
		delete(c.entries, key)
		return nil, false, true
	}
	c.lru.MoveToFront(e.elem)
	return e.cq, true, false
}

// insert adds or replaces the entry for key, returning how many entries
// were evicted to stay within the cap.
func (c *planCache) insert(key string, cq *catalyst.CompiledQuery, gen int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.cq, e.gen = cq, gen
		c.lru.MoveToFront(e.elem)
		return 0
	}
	e := &planCacheEntry{key: key, cq: cq, gen: gen}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	evicted := 0
	for len(c.entries) > c.max {
		back := c.lru.Back()
		old := back.Value.(*planCacheEntry)
		c.lru.Remove(back)
		delete(c.entries, old.key)
		evicted++
	}
	return evicted
}

// Len reports the number of cached shapes (tests and the SQL shell).
func (c *planCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// fingerprintConfig renders every config knob that changes planning or
// stage classification. It is folded into each cache key: the cache is
// per-session and config is immutable after NewSession, so this is
// defense in depth against entries outliving a config change.
func (s *Session) fingerprintConfig() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "engine=%v;par=%d;bcast=%d", s.cfg.Engine, s.cfg.Parallelism, s.cfg.BroadcastRows)
	if len(s.cfg.PhotonUnsupported) > 0 {
		ks := append([]string(nil), s.cfg.PhotonUnsupported...)
		sort.Strings(ks)
		sb.WriteString(";unsup=" + strings.Join(ks, ","))
	}
	return sb.String()
}

// stageConfig is the stage-planner configuration the compile phase
// classifies against — identical to what driver.Run will use at execute.
func (s *Session) stageConfig() catalyst.StageConfig {
	return catalyst.StageConfig{
		Parallelism:    s.cfg.Parallelism,
		BroadcastRows:  s.cfg.BroadcastRows,
		RuntimeFilters: true,
	}
}

// fastPathEligible decides routing from the compile-time classification:
// the whole input must fit one task, and stage planning must not be able
// to split the plan into more than one fragment (plans it cannot split at
// all run single-task anyway).
func (s *Session) fastPathEligible(cq *catalyst.CompiledQuery) bool {
	if cq.InputRows > DefaultFastPathRows {
		return false
	}
	if s.cfg.Parallelism > 1 && cq.Stageable && !cq.SingleFragment {
		return false
	}
	return true
}

// bindQuery runs the compile and bind phases for one execution. Every plan
// comes from catalyst.Compile, and every route from fastPathEligible: a
// cache entry is bound with this execution's values, a miss is compiled,
// inserted, then bound, and anything else is compiled verbatim (the
// statement as written, cached nowhere): caching is off, the shape does not
// normalize, its parameterized compile failed, or its values do not bind.
// parse must produce a pristine AST each call: Parameterize mutates the
// tree in place, so the verbatim compile re-parses. The catalog generation
// is captured before parsing so a concurrent snapshot refresh can only make
// a freshly inserted entry *more* conservative (stamped with the older
// generation, hence invalidated on next lookup), never let it serve a stale
// snapshot.
func (s *Session) bindQuery(parse func() (*sql.SelectStmt, error)) (*boundQuery, error) {
	bq := &boundQuery{}
	gen, negative := s.cat.Generation(), ""
	if s.cache != nil {
		stmt, err := parse()
		if err != nil {
			return nil, err
		}
		raws := sql.Parameterize(stmt)
		if norm, err := sql.NormalizeStmt(stmt); err == nil {
			bq.norm = norm
			key := norm + "\x00" + s.fp
			cq, hit, invalidated := s.cache.lookup(key, gen)
			if invalidated {
				s.svc.CacheInvalidations.Inc()
			}
			if !hit {
				if cq, err = catalyst.Compile(s.cat, stmt, raws, s.stageConfig()); err == nil {
					s.noteEvictions(s.cache.insert(key, cq, gen))
				} else {
					negative = key // filed once the verbatim compile succeeds
				}
			}
			if cq != nil && s.bind(bq, cq, raws) {
				bq.cached = hit // a miss paid full compilation
			}
		}
		if bq.cached {
			s.svc.CacheHits.Inc()
			return bq, nil
		}
		s.svc.CacheMisses.Inc()
		if bq.plan != nil {
			return bq, nil
		}
	}
	stmt, err := parse()
	if err != nil {
		return nil, err
	}
	cq, err := catalyst.Compile(s.cat, stmt, nil, s.stageConfig())
	if err != nil {
		return nil, err
	}
	if negative != "" {
		s.noteEvictions(s.cache.insert(negative, nil, gen))
	}
	bq.plan, bq.fastPath = cq.Plan, s.fastPathEligible(cq)
	return bq, nil
}

func (s *Session) noteEvictions(n int) {
	if n > 0 {
		s.svc.CacheEvictions.Add(int64(n))
	}
}

// bind adapts the execution's raw literals to cq's parameter slots and
// fills bq with a private copy of its plan, the values substituted, and its
// route. False means a value does not reproduce the compiled shape, and
// the execution compiles verbatim.
func (s *Session) bind(bq *boundQuery, cq *catalyst.CompiledQuery, raws []sql.AstExpr) bool {
	if len(raws) != len(cq.ParamTypes) {
		return false
	}
	vals := make(map[int]*expr.Literal, len(raws))
	for i, raw := range raws {
		lit, ok := sql.BindParam(raw, cq.SelfTypes[i], cq.ParamTypes[i])
		if !ok {
			return false
		}
		vals[i] = lit
	}
	plan, err := cq.Bind(vals)
	if err != nil {
		return false
	}
	bq.plan, bq.fastPath = plan, s.fastPathEligible(cq)
	return true
}

// PreparedStatement is a parsed statement with optional '?' placeholders,
// bound to the session that prepared it. Execute substitutes arguments
// positionally and runs through the session's full lifecycle (admission,
// plan cache, memory scoping); one statement may be executed from many
// goroutines concurrently.
type PreparedStatement struct {
	sess  *Session
	text  string
	nArgs int
}

// Prepare parses and validates a statement for repeated execution.
// Placeholders ('?') are bound positionally by Execute; a statement with
// no placeholders is also fine (repeated executions still hit the plan
// cache through literal parameterization).
func (s *Session) Prepare(query string) (*PreparedStatement, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return &PreparedStatement{sess: s, text: query, nArgs: sql.CountPlaceholders(stmt)}, nil
}

// NumParams reports the number of '?' placeholders.
func (ps *PreparedStatement) NumParams() int { return ps.nArgs }

// Execute runs the statement with the given placeholder arguments.
// Supported argument types: int, int32, int64, float64, string, bool, and
// nil (typed NULL).
func (ps *PreparedStatement) Execute(ctx context.Context, args ...any) (*Result, error) {
	res, _, err := ps.ExecuteStats(ctx, args...)
	return res, err
}

// ExecuteStats is Execute returning the query's lifecycle statistics
// (including whether planning hit the cache and execution took the fast
// path).
func (ps *PreparedStatement) ExecuteStats(ctx context.Context, args ...any) (*Result, *QueryStats, error) {
	if len(args) != ps.nArgs {
		return nil, nil, fmt.Errorf("photon: prepared statement has %d placeholders, got %d arguments", ps.nArgs, len(args))
	}
	p, err := ps.sess.run(ctx, ps.text, func() (*sql.SelectStmt, error) {
		stmt, err := sql.Parse(ps.text)
		if err != nil {
			return nil, err
		}
		return stmt, sql.SubstituteArgs(stmt, args)
	}, nil)
	return p.Result, p.Lifecycle, err
}

// PlanCacheLen reports the number of shapes currently cached (0 when the
// cache is disabled).
func (s *Session) PlanCacheLen() int {
	if s.cache == nil {
		return 0
	}
	return s.cache.Len()
}
