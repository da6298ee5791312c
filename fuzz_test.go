package photon

import (
	"testing"

	"photon/internal/tpch"
	"photon/internal/types"
)

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
	for _, q := range []string{
		"SELECT i, UPPER(s), SUBSTRING(s, 2, 3), s || 'x', YEAR(d), ABS(i) FROM t WHERE i > 1 ORDER BY i",
		"SELECT s, COUNT(DISTINCT i), SUM(i), AVG(i), MIN(d), MAX(s), COLLECT_LIST(s) FROM t GROUP BY s",
		"SELECT COALESCE(s, 'none'), CONCAT(s, s), LENGTH(s), TRIM(s), SQRT(i) FROM t",
		"SELECT EXTRACT(YEAR FROM d), MONTH(d), DAY(d) FROM t WHERE d < DATE '1970-01-01' + INTERVAL '3' MONTH",
		"SELECT a.i, b.s FROM t a JOIN t b ON a.i = b.i LEFT JOIN t c ON c.s = b.s",
	} {
		f.Add(q)
	}
	day, err := types.ParseDate("1969-07-20")
	if err != nil {
		f.Fatal(err)
	}
	schema := NewSchema(Col("i", Int64), Col("s", String), Col("d", Date))
	rows := [][]any{
		{int64(1), nil, day},
		{int64(-2), "", nil},
		{nil, "ßtraße ÄÖÜ", day + 20000},
	}
	var sessions []*Session
	for _, engine := range []Engine{EnginePhoton, EngineDBRInterpreted} {
		sess := NewSession(Config{Engine: engine})
		sess.RegisterRows("t", schema, rows)
		sessions = append(sessions, sess)
	}

	f.Fuzz(func(t *testing.T, q string) {
		for _, sess := range sessions {
			sess.SQL(q) // rows or an error; a panic fails the target
		}
	})
}
