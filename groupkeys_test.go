package photon

import (
	"fmt"
	"strings"
	"testing"
)

// TestGroupKeyExpressions groups by expressions — arithmetic, CASE, IS NULL —
// and names the same expression again in the select list and in HAVING,
// under comparison, BETWEEN and IN. Photon with and without the plan cache
// must return what the interpreted row engine returns.
func TestGroupKeyExpressions(t *testing.T) {
	queries := []string{
		"SELECT x * 2, COUNT(*) FROM t GROUP BY x * 2 HAVING x * 2 > 3",
		"SELECT x * 2, COUNT(*) FROM t GROUP BY x * 2 HAVING x * 2 BETWEEN 3 AND 20",
		"SELECT x * 2, COUNT(*) FROM t GROUP BY x * 2 HAVING x * 2 IN (4, 10)",
		"SELECT x - 1, SUM(y) FROM t GROUP BY x - 1 HAVING NOT x - 1 = 1",
		"SELECT CASE WHEN x > 1 THEN 1 ELSE 0 END, COUNT(*) FROM t GROUP BY CASE WHEN x > 1 THEN 1 ELSE 0 END",
		"SELECT CASE WHEN x > 1 THEN 'big' END, MIN(y) FROM t GROUP BY CASE WHEN x > 1 THEN 'big' END",
		"SELECT x IS NULL, COUNT(*) FROM t GROUP BY x IS NULL",
		"SELECT x IS NOT NULL, MAX(y) FROM t GROUP BY x IS NOT NULL HAVING COUNT(*) > 1",
		"SELECT CAST(x AS DOUBLE), COUNT(*) FROM t GROUP BY CAST(x AS DOUBLE)",
	}
	rows := [][]any{{int64(2), int64(10)}, {int64(2), int64(20)}, {int64(5), int64(30)}, {nil, int64(40)}, {int64(1), int64(50)}}
	session := func(cfg Config) *Session {
		sess := NewSession(cfg)
		if err := sess.RegisterRows("t", NewSchema(Col("x", Int64), Col("y", Int64)), rows); err != nil {
			t.Fatal(err)
		}
		return sess
	}
	ref := session(Config{Engine: EngineDBRInterpreted})
	cached, uncached := session(Config{}), session(Config{PlanCacheSize: -1})
	type run struct {
		name string
		sess *Session
	}
	for _, q := range queries {
		want, err := ref.SQL(q)
		if err != nil {
			t.Errorf("interpreted: %s: %v", q, err)
			continue
		}
		for _, r := range []run{{"cached", cached}, {"cached, warm", cached}, {"uncached", uncached}} {
			got, err := r.sess.SQL(q)
			if err != nil {
				t.Errorf("%s: %s: %v", r.name, q, err)
				continue
			}
			if g, w := strings.Join(renderSorted(got.Rows), " "), strings.Join(renderSorted(want.Rows), " "); g != w {
				t.Errorf("%s: %s:\n  got  %s\n  want %s", r.name, q, g, w)
			}
		}
	}
	res, err := cached.SQL(queries[0])
	if err != nil || fmt.Sprint(res.Rows) != "[[4 2] [10 1]]" && fmt.Sprint(res.Rows) != "[[10 1] [4 2]]" {
		t.Errorf("%s: %v (err %v), want [4 2] and [10 1]", queries[0], res, err)
	}

	// A select item that differs from the group key only in a literal is
	// not that key, however the plan cache lifts literals out of it.
	cached.SQL("SELECT x + 1, COUNT(*) FROM t GROUP BY x + 1")
	for _, q := range []string{
		"SELECT x + 2, COUNT(*) FROM t GROUP BY x + 1",
		"SELECT CASE WHEN x > 2 THEN 1 ELSE 0 END FROM t GROUP BY CASE WHEN x > 1 THEN 1 ELSE 0 END",
	} {
		for _, r := range []run{{"interpreted", ref}, {"cached", cached}, {"uncached", uncached}} {
			if _, err := r.sess.SQL(q); err == nil || !strings.Contains(err.Error(), "GROUP BY") {
				t.Errorf("%s: %s: err %v, want a GROUP BY error", r.name, q, err)
			}
		}
	}
}
