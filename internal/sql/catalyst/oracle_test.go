package catalyst

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"photon/internal/catalog"
	"photon/internal/exec"
	"photon/internal/expr"
	"photon/internal/sql"
	"photon/internal/tpch"
	"photon/internal/types"
)

// TestOptimizerOracle checks the optimizer against the query as written.
// Every engine in TestRandomQueryCrossEngine runs the same optimized plan,
// so a wrong rewrite there is invisible; here the optimized plan runs in
// Photon and the analyzed, unoptimized plan in the interpreted row engine
// (cross joins as joins on a constant key), and the rows must match.
//
// The queries join two or three small NULL-heavy tables with JOIN ... ON,
// LEFT OUTER JOIN and comma joins, under a WHERE clause that is a
// disjunction across the inputs: branches with no conjunct on one input,
// IS NULL on the NULL-padded side of a left join, constant-only branches
// and conjuncts over two inputs.
func TestOptimizerOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cat := oracleCatalog(rng)
			for i := 0; i < 40; i++ {
				q := oracleQuery(rng)
				got, _ := runSQL(t, cat, q, EnginePhoton, nil)
				want := runUnoptimized(t, cat, q)
				a, b := renderRows(got), renderRows(want)
				sortStrs(a)
				sortStrs(b)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("optimized plan disagrees with the query as written:\n%s\noptimized=%d rows, unoptimized=%d rows\n%s",
						q, len(a), len(b), sql.ExplainPlan(optimizedPlan(t, cat, q)))
				}
			}
		})
	}
}

// oracleCatalog registers tables a, b and c, each (x_k, x_s, x_n) with about
// a quarter of every column NULL.
func oracleCatalog(rng *rand.Rand) *catalog.Catalog {
	cat := catalog.New()
	strs := []string{"p", "q", "r", "", "pq", "δ"}
	for _, name := range []string{"a", "b", "c"} {
		sch := types.NewSchema(
			types.Field{Name: name + "_k", Type: types.Int64Type, Nullable: true},
			types.Field{Name: name + "_s", Type: types.StringType, Nullable: true},
			types.Field{Name: name + "_n", Type: types.Int64Type, Nullable: true},
		)
		var rows [][]any
		for i, n := 0, 20+rng.Intn(20); i < n; i++ {
			row := []any{int64(rng.Intn(6)), strs[rng.Intn(len(strs))], int64(rng.Intn(10) - 3)}
			for c := range row {
				if rng.Intn(4) == 0 {
					row[c] = nil
				}
			}
			rows = append(rows, row)
		}
		cat.Register(&catalog.MemTable{TableName: name, Sch: sch, Batches: exec.BuildBatches(sch, rows, 16)})
	}
	return cat
}

// oracleQuery composes a join of two or three tables whose WHERE clause is an
// OR spanning them.
func oracleQuery(rng *rand.Rand) string {
	tables := []string{"a", "b"}
	if rng.Intn(2) == 0 {
		tables = append(tables, "c")
	}
	var from string
	var where []string
	nullable := "" // the NULL-padded side of a left outer join, if any
	switch rng.Intn(3) {
	case 0: // comma join: the optimizer turns the cross join into a hash join
		from = strings.Join(tables, ", ")
		for i := 1; i < len(tables); i++ {
			where = append(where, fmt.Sprintf("%s_k = %s_k", tables[i-1], tables[i]))
		}
	default:
		from = "a"
		for i := 1; i < len(tables); i++ {
			kind := "JOIN"
			if rng.Intn(2) == 0 {
				kind, nullable = "LEFT OUTER JOIN", tables[i]
			}
			from += fmt.Sprintf(" %s %s ON %s_k = %s_k", kind, tables[i], tables[i], tables[rng.Intn(i)])
		}
	}
	single := func(t string) string {
		atoms := []string{
			"%[1]s_s = 'p'", "%[1]s_s <> 'q'", "%[1]s_s IN ('p', 'r')", "%[1]s_s IS NULL",
			"%[1]s_s IN ('a', 'b', 'c', 'd', 'e', 'f', 'g', 'pq', '', 'δ')", "%[1]s_s LIKE 'p%%'",
			"%[1]s_n > 2", "%[1]s_n BETWEEN -1 AND 3", "%[1]s_n IN (1, 4)", "%[1]s_n IS NOT NULL",
			"%[1]s_k IS NULL", "%[1]s_n + 1 < 4",
		}
		return fmt.Sprintf(atoms[rng.Intn(len(atoms))], t)
	}
	conjunct := func() string {
		switch r := rng.Intn(10); {
		case r == 0:
			return []string{"1 = 1", "1 = 0", "TRUE", "FALSE"}[rng.Intn(4)]
		case r <= 2:
			x, y := tables[rng.Intn(len(tables))], tables[rng.Intn(len(tables))]
			return fmt.Sprintf([]string{"%s_n = %s_n", "%s_n < %s_n", "%s_s = %s_s", "%s_n + %s_n > 3"}[rng.Intn(4)], x, y)
		case r <= 3 && nullable != "":
			return nullable + "_k IS NULL"
		}
		return single(tables[rng.Intn(len(tables))])
	}
	var branches []string
	for b, n := 0, 2+rng.Intn(2); b < n; b++ {
		var cs []string
		for c, m := 0, 1+rng.Intn(3); c < m; c++ {
			cs = append(cs, conjunct())
		}
		branches = append(branches, "("+strings.Join(cs, " AND ")+")")
	}
	where = append(where, "("+strings.Join(branches, " OR ")+")")
	if rng.Intn(3) == 0 {
		where = append(where, single(tables[rng.Intn(len(tables))]))
	}
	var cols []string
	for _, t := range tables {
		cols = append(cols, t+"_k", t+"_s", t+"_n")
	}
	return "SELECT " + strings.Join(cols, ", ") + " FROM " + from + " WHERE " + strings.Join(where, " AND ")
}

// runUnoptimized runs the analyzed plan as it stands in the interpreted row
// engine. A cross join becomes an inner join on a constant key, so it keeps
// every pair of rows and the WHERE clause above it filters them.
func runUnoptimized(t *testing.T, cat *catalog.Catalog, q string) [][]any {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := sql.Analyze(cat, stmt)
	if err != nil {
		t.Fatalf("analyze: %v\n%s", err, q)
	}
	tc := exec.NewTaskCtx(nil, 256)
	tc.SpillDir = t.TempDir()
	ex, err := Build(crossJoinsAsJoins(plan), Config{Engine: EngineDBRInterpreted}, tc)
	if err != nil {
		t.Fatalf("build unoptimized: %v\n%s", err, q)
	}
	rows, err := ex.Run(tc)
	if err != nil {
		t.Fatalf("run unoptimized: %v\n%s", err, q)
	}
	return rows
}

func crossJoinsAsJoins(plan sql.LogicalPlan) sql.LogicalPlan {
	switch n := plan.(type) {
	case *sql.LCrossJoin:
		return &sql.LJoin{
			Left: crossJoinsAsJoins(n.Left), Right: crossJoinsAsJoins(n.Right), Kind: sql.JoinInner,
			LeftKeys: []expr.Expr{expr.Int64Lit(1)}, RightKeys: []expr.Expr{expr.Int64Lit(1)},
		}
	case *sql.LJoin:
		n.Left, n.Right = crossJoinsAsJoins(n.Left), crossJoinsAsJoins(n.Right)
	case *sql.LFilter:
		n.Child = crossJoinsAsJoins(n.Child)
	case *sql.LProject:
		n.Child = crossJoinsAsJoins(n.Child)
	}
	return plan
}

func optimizedPlan(t *testing.T, cat *catalog.Catalog, q string) sql.LogicalPlan {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sql.Analyze(cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = Optimize(plan)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestDisjunctionOverJoinPlanShape: the optimizer pushes what a WHERE
// disjunction over a join implies to each input, and keeps the disjunction
// itself above the join. Q7's nation scans keep FRANCE and GERMANY; Q19's
// lineitem and part scans each get a disjunction of their own conjuncts.
func TestDisjunctionOverJoinPlanShape(t *testing.T) {
	cat := tpch.NewGen(0.001).Generate()
	for _, c := range []struct {
		q      int
		tables []string
	}{{7, []string{"nation", "nation"}}, {19, []string{"lineitem", "part"}}} {
		plan := optimizedPlan(t, cat, tpch.Queries[c.q])
		var scanned []string
		var ors int
		walkPlan(plan, func(p sql.LogicalPlan) {
			switch n := p.(type) {
			case *sql.LScan:
				if n.Filter != nil && strings.Contains(n.Filter.String(), " OR ") {
					scanned = append(scanned, n.Table.Name())
					if c.q == 7 {
						names := map[any]bool{}
						expr.MapFilterLeaves(n.Filter, func(e expr.Expr) (expr.Expr, error) {
							if l, ok := e.(*expr.Literal); ok {
								names[l.Val] = true
							}
							return e, nil
						})
						if !reflect.DeepEqual(names, map[any]bool{"FRANCE": true, "GERMANY": true}) {
							t.Errorf("Q7 nation scan filters %s", n.Filter)
						}
					}
				}
			case *sql.LFilter:
				j, ok := n.Child.(*sql.LJoin)
				if _, isOr := n.Pred.(*expr.Or); !ok || !isOr {
					return
				}
				leftW := j.Left.Schema().Len()
				if minColRef(n.Pred) < leftW && maxColRef(n.Pred) >= leftW {
					ors++
				}
			}
		})
		sortStrs(scanned)
		if !reflect.DeepEqual(scanned, c.tables) || ors != 1 {
			t.Errorf("Q%d: scans with a derived disjunction %v, want %v; disjunctions over their join %d, want 1\n%s",
				c.q, scanned, c.tables, ors, sql.ExplainPlan(plan))
		}
	}
}

func walkPlan(p sql.LogicalPlan, visit func(sql.LogicalPlan)) {
	visit(p)
	for _, c := range p.Children() {
		walkPlan(c, visit)
	}
}
