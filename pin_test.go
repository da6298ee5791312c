package photon

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"photon/internal/sql"
	"photon/internal/tpch"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/plancache_pin.golden with this build's output")

// pinPrepared are prepared forms with '?' in every place the placeholder
// substitution reaches, each with its arguments.
var pinPrepared = []struct {
	q    string
	args []any
}{
	{"SELECT CASE WHEN i > ? THEN ? ELSE s END FROM t", []any{1, "big"}},
	{"SELECT i FROM t WHERE i IN (?, ?, 3) AND s NOT IN (?)", []any{1, int64(2), "x"}},
	{"SELECT i FROM t WHERE i BETWEEN ? AND ? OR d NOT BETWEEN ? AND '1970-02-01'", []any{-1, 5, "1969-01-01"}},
	{"SELECT SUBSTRING(s, 1, 2), COALESCE(s, ?), ABS(i - ?) FROM t", []any{"none", 2.5}},
	{"SELECT a.i FROM t a JOIN t b ON a.i = b.i AND b.s = ? LEFT JOIN t c ON c.i = ?", []any{"a", nil}},
	{"SELECT x.i FROM (SELECT i, s FROM t WHERE i > ?) x WHERE x.s <> ?", []any{0, ""}},
	{"SELECT i + ?, COUNT(*) FROM t WHERE s IS NOT NULL GROUP BY i + ? HAVING COUNT(*) > ? ORDER BY i + ?", []any{1, 1, 0, true}},
	{"SELECT CAST(? AS DOUBLE), -i FROM t WHERE NOT (i = ? OR s LIKE 'a%')", []any{7, int32(3)}},
	{"SELECT i FROM t WHERE i = ? AND s = ?", []any{1}},
}

// planCachePin renders what the plan cache derives from SQL text: the cache
// key and the raw literal of each parameter slot for the 22 TPC-H texts and
// fuzzForms, the placeholder count and substituted statement of each
// prepared form, and the plan each TPC-H query binds from the cache.
func planCachePin(t *testing.T) string {
	var b strings.Builder
	normalize := func(name, q string) {
		stmt, err := sql.Parse(q)
		if err != nil {
			fmt.Fprintf(&b, "# %s\nparse error: %v\n", name, err)
			return
		}
		raws := sql.Parameterize(stmt)
		key, err := sql.NormalizeStmt(stmt)
		fmt.Fprintf(&b, "# %s\nkey: %s (err %v)\n", name, key, err)
		for i, raw := range raws {
			fmt.Fprintf(&b, "slot %d: %T %+v\n", i, raw, raw)
		}
	}
	for _, q := range tpch.QueryNumbers() {
		normalize(fmt.Sprintf("Q%d", q), tpch.Queries[q])
	}
	for i, q := range fuzzForms {
		normalize(fmt.Sprintf("form %d: %s", i, q), q)
	}
	for i, p := range pinPrepared {
		stmt, err := sql.Parse(p.q)
		if err != nil {
			t.Fatalf("prepared %d: %v", i, err)
		}
		n := sql.CountPlaceholders(stmt)
		err = sql.SubstituteArgs(stmt, p.args)
		key, kerr := sql.NormalizeStmt(stmt)
		fmt.Fprintf(&b, "# prepared %d: %s\nplaceholders: %d\nsubstitute: %v\nstmt: %s (err %v)\n", i, p.q, n, err, key, kerr)
	}
	sess := tpchSession(0.01, Config{})
	for _, q := range tpch.QueryNumbers() {
		parse := func() (*sql.SelectStmt, error) { return sql.Parse(tpch.Queries[q]) }
		if _, err := sess.bindQuery(parse); err != nil {
			t.Fatalf("Q%d compile: %v", q, err)
		}
		bq, err := sess.bindQuery(parse)
		if err != nil {
			t.Fatalf("Q%d bind: %v", q, err)
		}
		fmt.Fprintf(&b, "# Q%d bound (cached %v)\n%s", q, bq.cached, sql.ExplainPlan(bq.plan))
	}
	return b.String()
}

// TestPlanCachePin holds the plan cache's view of SQL text to a golden file:
// keys, parameter slots, placeholder substitution and bound plans. A change
// to how statements are walked must leave the file byte-identical; run with
// -update only for a change meant to move these outputs.
func TestPlanCachePin(t *testing.T) {
	const path = "testdata/plancache_pin.golden"
	got := planCachePin(t)
	if *updatePin {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n  got:  %s\n  want: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
