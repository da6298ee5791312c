package photon

import (
	"fmt"
	"slices"
	"testing"

	"photon/internal/tpch"
	"photon/internal/types"
)

// fuzzForms are SQL forms over fuzzRows' table t: the function table,
// aggregation, date arithmetic, joins, group keys that are expressions
// matched again in the select list and HAVING, and BETWEEN with a NULL
// bound under NOT and OR.
var fuzzForms = []string{
	"SELECT i, UPPER(s), SUBSTRING(s, 2, 3), s || 'x', YEAR(d), ABS(i) FROM t WHERE i > 1 ORDER BY i",
	"SELECT s, COUNT(DISTINCT i), SUM(i), AVG(i), MIN(d), MAX(s), COLLECT_LIST(s) FROM t GROUP BY s",
	"SELECT COALESCE(s, 'none'), CONCAT(s, s), LENGTH(s), TRIM(s), SQRT(i) FROM t",
	"SELECT EXTRACT(YEAR FROM d), MONTH(d), DAY(d) FROM t WHERE d < DATE '1970-01-01' + INTERVAL '3' MONTH",
	"SELECT a.i, b.s FROM t a JOIN t b ON a.i = b.i LEFT JOIN t c ON c.s = b.s",
	"SELECT i * 2, COUNT(*) FROM t GROUP BY i * 2 HAVING i * 2 > 3",
	"SELECT i + 1, COUNT(*) FROM t GROUP BY i + 1 HAVING i + 1 BETWEEN 0 AND 9 AND i + 1 IN (2, 8)",
	"SELECT CASE WHEN i > 1 THEN 1 ELSE 0 END, COUNT(*) FROM t GROUP BY CASE WHEN i > 1 THEN 1 ELSE 0 END",
	"SELECT s IS NULL, MAX(i) FROM t GROUP BY s IS NULL",
	"SELECT i, d FROM t WHERE NOT (i BETWEEN NULL AND 3) OR NOT (d BETWEEN NULL AND DATE '1970-01-01')",
	"SELECT i, d FROM t WHERE i > 6 OR i NOT BETWEEN -5 AND NULL OR d NOT BETWEEN DATE '1969-01-01' AND NULL",
}

var fuzzSchema = NewSchema(Col("i", Int64), Col("s", String), Col("d", Date))

// fuzzRows are rows of fuzzSchema: NULLs, an empty and a non-ASCII string,
// and dates either side of the epoch.
func fuzzRows(tb testing.TB) [][]any {
	day, err := types.ParseDate("1969-07-20")
	if err != nil {
		tb.Fatal(err)
	}
	return [][]any{
		{int64(1), nil, day},
		{int64(-2), "", nil},
		{nil, "ßtraße ÄÖÜ", day + 20000},
	}
}

// FuzzSQL sends arbitrary text through Session.SQL on a 3-row table under
// Photon and the interpreted row engine: rows or an error, never a panic.
// Seeds are the 22 TPC-H texts, the function forms and the wrong calls.
func FuzzSQL(f *testing.F) {
	for _, q := range tpch.QueryNumbers() {
		f.Add(tpch.Queries[q])
	}
	for _, q := range wrongCalls {
		f.Add(q)
	}
	for _, q := range fuzzForms {
		f.Add(q)
	}
	rows := fuzzRows(f)
	var sessions []*Session
	for _, engine := range []Engine{EnginePhoton, EngineDBRInterpreted} {
		sess := NewSession(Config{Engine: engine})
		if err := sess.RegisterRows("t", fuzzSchema, rows); err != nil {
			f.Fatal(err)
		}
		sessions = append(sessions, sess)
	}

	f.Fuzz(func(t *testing.T, q string) {
		for _, sess := range sessions {
			sess.SQL(q) // rows or an error; a panic fails the target
		}
	})
}

// FuzzPlanCache: the plan cache never serves one query another's plan. A
// session with a cache runs q1 and then q2, and q2 must return what it
// returns on a session without one — the same columns and rows, or an error
// exactly when that one errs. Whatever Parameterize lifts out of q1 and q2
// and however NormalizeStmt rewrites them, two queries with different
// results must not share a cache entry. Seeds pair the 22 TPC-H texts and
// the function forms, and pairs that differ only in a literal.
func FuzzPlanCache(f *testing.F) {
	var seeds []string
	for _, q := range tpch.QueryNumbers() {
		seeds = append(seeds, tpch.Queries[q])
	}
	seeds = append(seeds, fuzzForms...)
	for i, q := range seeds {
		f.Add(q, q)
		f.Add(q, seeds[(i+1)%len(seeds)])
	}
	for _, p := range [][2]string{
		{"SELECT i FROM t WHERE i > 1", "SELECT i FROM t WHERE i > -5"},
		{"SELECT i + 1 FROM t", "SELECT i + 1.5 FROM t"},
		{"SELECT s FROM t WHERE s = 'a'", "SELECT s FROM t WHERE s = ''"},
		{"SELECT i FROM t ORDER BY i LIMIT 1", "SELECT i FROM t ORDER BY i LIMIT 3"},
		{"SELECT SUBSTRING(s, 1, 2) FROM t", "SELECT SUBSTRING(s, 2, 3) FROM t"},
		{"SELECT d FROM t WHERE d < DATE '1970-01-01'", "SELECT d FROM t WHERE d < DATE '2030-01-01'"},
		{"SELECT i IN (1, 7) FROM t", "SELECT i IN (1, NULL) FROM t"},
		{"SELECT i AS a FROM t", "SELECT i AS b FROM t"},
	} {
		f.Add(p[0], p[1])
	}
	rows := fuzzRows(f)
	rows = append(rows, []any{int64(7), "a", rows[0][2].(int32) + 1})
	register := func(tb testing.TB, cfg Config) *Session {
		sess := NewSession(cfg)
		if err := sess.RegisterRows("t", fuzzSchema, rows); err != nil {
			tb.Fatal(err)
		}
		return sess
	}
	uncached := register(f, Config{PlanCacheSize: -1})
	run := func(sess *Session, q string) (string, error) {
		res, err := sess.SQL(q)
		if err != nil {
			return "", err
		}
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = fmt.Sprint(r)
		}
		slices.Sort(out)
		return fmt.Sprint(res.Schema, out), nil
	}

	f.Fuzz(func(t *testing.T, q1, q2 string) {
		cached := register(t, Config{})
		cached.SQL(q1)
		got, gotErr := run(cached, q2)
		want, wantErr := run(uncached, q2)
		if (gotErr != nil) != (wantErr != nil) || got != want {
			t.Fatalf("after %q, %q on the cached session:\n  %s (err %v)\nuncached:\n  %s (err %v)",
				q1, q2, got, gotErr, want, wantErr)
		}
	})
}
