package catalyst

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"photon/internal/catalog"
	"photon/internal/exec"
	"photon/internal/types"
)

// TestRandomQueryCrossEngine is the paper's fuzz-testing tier (§5.6) at the
// query level: random data (with NULLs, non-ASCII strings, skew) and
// randomly composed queries run through all three engines; results must
// match exactly.
func TestRandomQueryCrossEngine(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cat := randomCatalog(rng)
			for i := 0; i < 12; i++ {
				q := randomQuery(rng)
				photon, _ := runSQL(t, cat, q, EnginePhoton, nil)
				codegen, _ := runSQL(t, cat, q, EngineDBRCompiled, nil)
				interp, _ := runSQL(t, cat, q, EngineDBRInterpreted, nil)
				a, b, c := renderRows(photon), renderRows(codegen), renderRows(interp)
				sortStrs(a)
				sortStrs(b)
				sortStrs(c)
				if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
					t.Fatalf("engines disagree on:\n%s\nphoton=%d codegen=%d interp=%d rows",
						q, len(a), len(b), len(c))
				}
			}
		})
	}
}

func renderRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

func sortStrs(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// randomCatalog builds two joinable tables with messy data.
func randomCatalog(rng *rand.Rand) *catalog.Catalog {
	cat := catalog.New()
	strs := []string{"alpha", "Beta", "GAMMA", "δέλτα", "N/A", "", "42", "-7", "omega point"}
	tSchema := types.NewSchema(
		types.Field{Name: "id", Type: types.Int64Type},
		types.Field{Name: "grp", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "val", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "f", Type: types.Float64Type, Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
		types.Field{Name: "dec", Type: types.DecimalType(12, 2), Nullable: true},
	)
	n := 200 + rng.Intn(400)
	var rows [][]any
	for i := 0; i < n; i++ {
		row := []any{
			int64(i),
			int64(rng.Intn(7)),
			int64(rng.Intn(1000) - 500),
			rng.Float64() * 100,
			strs[rng.Intn(len(strs))],
			types.DecimalFromInt64(int64(rng.Intn(100000) - 50000)),
		}
		for c := 1; c < len(row); c++ {
			if rng.Intn(12) == 0 {
				row[c] = nil
			}
		}
		rows = append(rows, row)
	}
	cat.Register(&catalog.MemTable{TableName: "t", Sch: tSchema, Batches: exec.BuildBatches(tSchema, rows, 64)})

	dSchema := types.NewSchema(
		types.Field{Name: "grp", Type: types.Int64Type},
		types.Field{Name: "label", Type: types.StringType},
	)
	var drows [][]any
	for g := 0; g < 5; g++ { // fewer groups than t has: some rows dangle
		drows = append(drows, []any{int64(g), fmt.Sprintf("group-%d", g)})
	}
	cat.Register(&catalog.MemTable{TableName: "d", Sch: dSchema, Batches: exec.BuildBatches(dSchema, drows, 64)})
	return cat
}

// randomQuery composes a query from supported fragments.
func randomQuery(rng *rand.Rand) string {
	preds := []string{
		"val > 0", "val <= -100", "val BETWEEN -50 AND 200", "t.grp IN (1, 3, 5)",
		"s LIKE '%a%'", "s NOT LIKE 'G%'", "s IS NOT NULL", "f < 50.0",
		"dec > 100.00", "NOT (val = 0)", "upper(s) = 'ALPHA'",
		"length(s) > 3", "val % 2 = 0", "s NOT IN ('alpha', NULL)",
		"NOT (s = 'GAMMA' OR val < 0)", "NOT (NOT (f < 50.0))",
	}
	pick := func() string { return preds[rng.Intn(len(preds))] }
	where := pick()
	for k := 0; k < rng.Intn(2); k++ {
		if rng.Intn(2) == 0 {
			where += " AND " + pick()
		} else {
			where += " OR " + pick()
		}
	}
	if rng.Intn(4) == 0 { // NOT over a composite: NULL operands must not pass
		where = "NOT (" + where + " AND " + pick() + ")"
	}
	switch rng.Intn(4) {
	case 0: // plain projection
		return "SELECT id, val + 1, upper(s), CASE WHEN val > 0 THEN 'pos' ELSE 'neg' END FROM t WHERE " + where
	case 1: // aggregate
		return "SELECT grp, count(*) c, sum(val) sv, min(f) mf, max(s) mx, avg(val) av FROM t WHERE " + where + " GROUP BY grp"
	case 2: // join + aggregate
		return "SELECT label, count(*) c, sum(val) s FROM t JOIN d ON d.grp = t.grp WHERE " + where + " GROUP BY label"
	default: // distinct + order + limit
		return "SELECT DISTINCT grp, s FROM t WHERE " + where + " ORDER BY grp, s LIMIT 50"
	}
}
