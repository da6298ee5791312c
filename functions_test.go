package photon

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"photon/internal/sql"
	"photon/internal/types"
)

// funcNames is every name the SQL dialect knows as a function. Each must
// appear in some form below, so no function escapes the cross-engine check.
var funcNames = []string{
	"ABS", "AVG", "COALESCE", "COLLECT_LIST", "CONCAT", "COUNT", "DAY",
	"LENGTH", "LOWER", "MAX", "MIN", "MONTH", "SQRT", "SUBSTR", "SUBSTRING",
	"SUM", "TRIM", "UPPER", "YEAR",
}

// funcSession registers t: NULLs, empty, non-ASCII and padded strings, BIGINT
// at ±2^63, DOUBLEs whose square root is NaN, dates and timestamps before
// 1970, and a DECIMAL(12,2) column y on both sides of ±0.055.
func funcSession(cfg Config) *Session {
	sess := NewSession(cfg)
	ts := func(s string) int64 {
		v, err := types.ParseTimestamp(s)
		if err != nil {
			panic(err)
		}
		return v
	}
	day := func(s string) int32 {
		v, err := types.ParseDate(s)
		if err != nil {
			panic(err)
		}
		return v
	}
	dec := func(s string) types.Decimal128 {
		v, err := types.ParseDecimal(s, 2)
		if err != nil {
			panic(err)
		}
		return v
	}
	schema := NewSchema(Col("k", Int64), Col("g", String), Col("s", String), Col("i", Int64),
		Col("f", Float64), Col("d", Date), Col("ts", Timestamp), Col("x", Decimal(10, 2)), Col("y", Decimal(12, 2)))
	sess.RegisterRows("t", schema, [][]any{
		{int64(1), "a", nil, nil, nil, nil, nil, nil, nil},
		{int64(2), "b", "", int64(0), 0.0, day("1970-01-01"), ts("1970-01-01 00:00:00"), dec("0.00"), dec("0.05")},
		{int64(3), "a", "héllo", int64(math.MaxInt64), -4.0, day("1969-12-31"), ts("1969-12-31 23:59:59"), dec("-2.25"), dec("0.06")},
		{int64(4), "b", "ßtraße ÄÖÜ", int64(math.MinInt64), 2.25, day("1900-02-28"), ts("1901-07-04 06:30:00"), dec("12345678.99"), dec("-0.05")},
		{int64(5), "a", "  padded  ", int64(-7), -0.5, day("2000-02-29"), ts("2024-02-29 12:34:56"), dec("1.50"), dec("-0.06")},
		{int64(6), "b", "abc", int64(42), 1e300, day("1965-07-04"), ts("1955-11-05 01:21:00"), dec("-0.01"), dec("0.00")},
	})
	return sess
}

// TestFunctionsAgreeAcrossEngines runs every function form the analyzer
// accepts on Photon, DBR codegen and DBR interpreted, and requires the rows
// to be equal.
func TestFunctionsAgreeAcrossEngines(t *testing.T) {
	scalars := []string{
		"UPPER(s)", "LOWER(s)", "LENGTH(s)", "TRIM(s)",
		"SUBSTRING(s, 2, 3)", "SUBSTRING(s, 3)", "SUBSTRING(s, 0, 2)", "SUBSTR(s, 1, 4)",
		"CONCAT(s, s)", "CONCAT(s, '-', s)", "CONCAT(s)", "s || s", "s || '!'",
		"YEAR(d)", "MONTH(d)", "DAY(d)", "YEAR(ts)", "MONTH(ts)", "DAY(ts)",
		"SQRT(f)", "SQRT(i)", "SQRT(x)",
		"ABS(i)", "ABS(f)", "ABS(x)", "ABS(k - 4)",
		"COALESCE(s, 'none')", "COALESCE(i, 0)", "COALESCE(d, DATE '2000-01-01')", "COALESCE(x, 1.5)", "COALESCE(y, 0.055)",
	}
	aggs := []string{
		"COUNT(*)", "COUNT(s)", "COUNT(i)", "COUNT(DISTINCT s)", "COUNT(DISTINCT g)",
		"SUM(i)", "SUM(f)", "SUM(x)", "AVG(i)", "AVG(f)", "AVG(x)",
		"MIN(s)", "MIN(i)", "MIN(f)", "MIN(d)", "MIN(ts)", "MIN(x)",
		"MAX(s)", "MAX(i)", "MAX(f)", "MAX(d)", "MAX(ts)", "MAX(x)",
		"COLLECT_LIST(s)", "COLLECT_LIST(i)",
	}
	// layered applies a string function to another's output, through a
	// filter, a join and a grouping: each must read its input's strings
	// before anything above it overwrites them.
	layered := []string{
		"SELECT k, CONCAT(u, '-x') FROM (SELECT UPPER(g) AS u, k FROM t) v WHERE u LIKE '%A%' ORDER BY k",
		"SELECT k, CONCAT(u, '-x') FROM (SELECT UPPER(g) AS u, k FROM t) v JOIN (SELECT k AS j FROM t WHERE k > 0) w ON k = j WHERE u LIKE '%A%' ORDER BY k",
		"SELECT CONCAT(u, '-x') AS c FROM (SELECT UPPER(g) AS u, k FROM t) v WHERE u LIKE '%A%' GROUP BY CONCAT(u, '-x') ORDER BY c",
	}
	// predicates filter on each type: IN over DECIMAL takes literals at,
	// above and below the column's scale, and integers.
	predicates := []string{
		"SELECT k FROM t WHERE x IN (1.50, -0.01) ORDER BY k",
		"SELECT k FROM t WHERE x IN (1.5, 12345678.99, 7, -2.250) ORDER BY k",
		"SELECT k FROM t WHERE x NOT IN (0.00, -2.25) ORDER BY k",
		"SELECT k FROM t WHERE x NOT IN (0.00, NULL) ORDER BY k",
	}
	// finer compares y, a DECIMAL(12,2), with literals a digit finer than
	// it, as SQL does: exactly. Each predicate's rows are pinned, so rounding
	// the literal fails even where every engine rounds alike.
	finer := []struct{ pred, keys string }{
		{"y = 0.055", "[]"}, {"y <> 0.055", "[[2] [3] [4] [5] [6]]"},
		{"y < 0.055", "[[2] [4] [5] [6]]"}, {"y <= 0.055", "[[2] [4] [5] [6]]"},
		{"y > 0.055", "[[3]]"}, {"y >= 0.055", "[[3]]"}, {"0.055 > y", "[[2] [4] [5] [6]]"},
		{"y = -0.055", "[]"}, {"y <> -0.055", "[[2] [3] [4] [5] [6]]"},
		{"y < -0.055", "[[5]]"}, {"y <= -0.055", "[[5]]"},
		{"y > -0.055", "[[2] [3] [4] [6]]"}, {"y >= -0.055", "[[2] [3] [4] [6]]"},
		{"y BETWEEN -0.055 AND 0.055", "[[2] [4] [6]]"}, {"y NOT BETWEEN -0.055 AND 0.055", "[[3] [5]]"},
		{"y IN (0.055, -0.055)", "[]"}, {"y IN (0.055, 0.06)", "[[3]]"},
		{"y NOT IN (0.055, -0.055)", "[[2] [3] [4] [5] [6]]"}, {"y NOT IN (0.055, -0.05)", "[[2] [3] [5] [6]]"},
	}
	// nullBound is BETWEEN with a NULL bound on INT, DATE and DECIMAL: the
	// comparison with NULL is NULL, so only the other bound can make a row's
	// NOT BETWEEN true.
	nullBound := []struct{ pred, keys string }{
		{"i BETWEEN NULL AND 3", "[]"}, {"i NOT BETWEEN NULL AND 3", "[[3] [6]]"},
		{"i BETWEEN -10 AND NULL", "[]"}, {"i NOT BETWEEN -10 AND NULL", "[[4]]"},
		{"i BETWEEN NULL AND NULL", "[]"}, {"i NOT BETWEEN NULL AND NULL", "[]"},
		{"NOT (i BETWEEN NULL AND 3)", "[[3] [6]]"}, {"k = 1 OR i NOT BETWEEN -10 AND NULL", "[[1] [4]]"},
		{"i >= NULL AND i <= 3", "[]"}, {"NOT (i >= -10 AND i <= NULL)", "[[4]]"},
		{"d BETWEEN NULL AND DATE '1969-12-31'", "[]"}, {"d NOT BETWEEN NULL AND DATE '1969-12-31'", "[[2] [5]]"},
		{"d BETWEEN DATE '1965-07-04' AND NULL", "[]"}, {"d NOT BETWEEN DATE '1965-07-04' AND NULL", "[[4]]"},
		{"d BETWEEN NULL AND NULL", "[]"}, {"d NOT BETWEEN NULL AND NULL", "[]"},
		{"k = 6 OR NOT (d BETWEEN NULL AND DATE '1969-12-31')", "[[2] [5] [6]]"},
		{"x BETWEEN NULL AND 0.055", "[]"}, {"x NOT BETWEEN NULL AND 0.055", "[[4] [5]]"},
		{"x BETWEEN -0.01 AND NULL", "[]"}, {"x NOT BETWEEN -0.01 AND NULL", "[[3]]"},
		{"x BETWEEN NULL AND NULL", "[]"}, {"x NOT BETWEEN NULL AND NULL", "[]"},
		{"k > 5 OR x NOT BETWEEN NULL AND 0.055", "[[4] [5] [6]]"},
	}
	// like matches _ against one character of a non-ASCII string, not one
	// byte, as Spark does.
	like := []struct{ pred, keys string }{
		{"s LIKE 'h_llo'", "[[3]]"}, {"s LIKE '_____'", "[[3]]"},
		{"s LIKE '_traße%'", "[[4]]"}, {"s NOT LIKE '%Ä_Ü'", "[[2] [3] [5] [6]]"},
	}
	pinned := map[string]string{}
	for _, f := range slices.Concat(finer, nullBound, like) {
		q := "SELECT k FROM t WHERE " + f.pred + " ORDER BY k"
		pinned[q] = f.keys
		predicates = append(predicates, q)
	}
	queries := append(layered, predicates...)
	// narrowing casts DECIMALs to a smaller scale, rounding half away from
	// zero as Spark's HALF_UP does: ties and near-ties of both signs. A cast
	// to BIGINT truncates toward zero instead, as Spark's does.
	narrowing := []struct{ form, rows string }{
		{"CAST(y AS DECIMAL(12,1))", "[[1 <nil>] [2 0.1] [3 0.1] [4 -0.1] [5 -0.1] [6 0.0]]"},
		{"CAST(y - 0.001 AS DECIMAL(12,1))", "[[1 <nil>] [2 0.0] [3 0.1] [4 -0.1] [5 -0.1] [6 0.0]]"},
		{"CAST(y + 0.001 AS DECIMAL(12,1))", "[[1 <nil>] [2 0.1] [3 0.1] [4 0.0] [5 -0.1] [6 0.0]]"},
		{"CAST(y - 0.005 AS DECIMAL(12,2))", "[[1 <nil>] [2 0.05] [3 0.06] [4 -0.06] [5 -0.07] [6 -0.01]]"},
		{"CAST(x AS DECIMAL(10,1))", "[[1 <nil>] [2 0.0] [3 -2.3] [4 12345679.0] [5 1.5] [6 0.0]]"},
		{"CAST(x AS DECIMAL(10,0))", "[[1 <nil>] [2 0] [3 -2] [4 12345679] [5 2] [6 0]]"},
		{"CAST(-x AS DECIMAL(10,0))", "[[1 <nil>] [2 0] [3 2] [4 -12345679] [5 -2] [6 0]]"},
		{"CAST(x AS BIGINT)", "[[1 <nil>] [2 0] [3 -2] [4 12345678] [5 1] [6 0]]"},
		{"CAST(-x AS BIGINT)", "[[1 <nil>] [2 0] [3 2] [4 -12345678] [5 -1] [6 0]]"},
	}
	for _, c := range narrowing {
		q := fmt.Sprintf("SELECT k, CAST(%s AS STRING) FROM t ORDER BY k", c.form)
		pinned[q] = c.rows
		queries = append(queries, q)
	}
	// aligned are CASE values and COALESCE arguments brought to one type: a
	// NULL literal never chooses it, and an integer widens to a DOUBLE.
	aligned := map[string]string{}
	for form, typ := range map[string]string{
		"CASE WHEN k > 3 THEN NULL ELSE x END": "DECIMAL(10,2)",
		"COALESCE(f, i)":                       "DOUBLE",
		"COALESCE(i, f)":                       "DOUBLE",
	} {
		q := fmt.Sprintf("SELECT k, %s FROM t ORDER BY k", form)
		aligned[q] = typ
		queries = append(queries, q)
	}
	for _, f := range scalars {
		queries = append(queries, fmt.Sprintf("SELECT k, %s FROM t ORDER BY k", f))
	}
	for _, f := range aggs {
		queries = append(queries,
			fmt.Sprintf("SELECT %s FROM t", f),
			fmt.Sprintf("SELECT g, %s FROM t GROUP BY g ORDER BY g", f))
	}

	if got := sql.FunctionNames(); !slices.Equal(got, funcNames) {
		t.Errorf("the function table has %v, the pin %v", got, funcNames)
	}
	forms := strings.Join(append(scalars, aggs...), " ")
	for _, name := range funcNames {
		if !strings.Contains(forms, name+"(") {
			t.Errorf("no form calls %s", name)
		}
	}

	engines := []struct {
		name string
		sess *Session
	}{
		{"photon", funcSession(Config{})},
		{"dbr", funcSession(Config{Engine: EngineDBR})},
		{"dbr-interpreted", funcSession(Config{Engine: EngineDBRInterpreted})},
		{"photon-par4", funcSession(Config{Parallelism: 4})},
	}
	for _, q := range queries {
		var want string
		for i, e := range engines {
			res, err := e.sess.SQL(q)
			if err != nil {
				t.Errorf("%s: %s: %v", e.name, q, err)
				break
			}
			got := fmt.Sprint(res.Rows)
			if keys, ok := pinned[q]; ok && got != keys {
				t.Errorf("%s: %s: rows %s, want %s", e.name, q, got, keys)
			}
			if typ, ok := aligned[q]; ok && res.Schema.Fields[1].Type.String() != typ {
				t.Errorf("%s: %s: type %v, want %s", e.name, q, res.Schema.Fields[1].Type, typ)
			}
			if i == 0 {
				want = got
			} else if got != want {
				t.Errorf("%s\n  photon: %s\n  %s: %s", q, want, e.name, got)
			}
		}
	}
}

// wrongCalls are calls the analyzer rejects.
var wrongCalls = []string{
	// arity
	"SELECT SUBSTRING(s) FROM t",
	"SELECT UPPER(s, s) FROM t",
	"SELECT SQRT(i, i) FROM t",
	"SELECT COUNT(s, i) FROM t",
	"SELECT COALESCE() FROM t",
	// argument types
	"SELECT UPPER(i) FROM t",
	"SELECT YEAR(s) FROM t",
	"SELECT CONCAT(s, i) FROM t",
	"SELECT s || i FROM t",
	"SELECT ABS(s) FROM t",
	"SELECT SUM(s) FROM t",
	"SELECT AVG(d) FROM t",
	// operand types
	"SELECT k FROM t WHERE x LIKE '1%'",
	"SELECT k FROM t WHERE d LIKE '1%'",
	"SELECT -s FROM t",
	"SELECT x % y FROM t",
	"SELECT d - d FROM t",
	"SELECT s + NULL FROM t",
	"SELECT i + INTERVAL '1' DAY FROM t",
	"SELECT ts - INTERVAL '1' DAY FROM t",
	// casts no engine converts
	"SELECT CAST(x AS INT) FROM t",
	"SELECT CAST(i AS DATE) FROM t",
	"SELECT CAST(ts AS BIGINT) FROM t",
	"SELECT CAST(s AS BOOLEAN) FROM t",
	"SELECT CASE WHEN k > 3 THEN d ELSE 1 END FROM t",
	"SELECT COALESCE(k > 2, x) FROM t",
	"SELECT SQRT(k > 2) FROM t",
	// literal-only arguments
	"SELECT SUBSTRING(s, k) FROM t",
	"SELECT SUBSTRING(s, 1, 2.5) FROM t",
	// DISTINCT and *
	"SELECT SUM(DISTINCT i) FROM t",
	"SELECT AVG(DISTINCT f) FROM t",
	"SELECT MIN(DISTINCT s) FROM t",
	"SELECT g, MAX(DISTINCT i) FROM t GROUP BY g",
	"SELECT UPPER(DISTINCT s) FROM t",
	"SELECT SUM(*) FROM t",
	// names and placement
	"SELECT NOSUCH(s) FROM t",
	"SELECT k FROM t WHERE COUNT(*) > 1",
}

// TestWrongCallsFailAtAnalysis: a call with the wrong number or type of
// arguments, a non-literal where a literal belongs, or DISTINCT on an
// aggregate other than COUNT is one analysis error, the same on every
// engine and on the partial-rollout config, raised before the query runs.
func TestWrongCallsFailAtAnalysis(t *testing.T) {
	sessions := []struct {
		name string
		sess *Session
	}{
		{"photon", funcSession(Config{})},
		{"photon-row-aggregate", funcSession(Config{PhotonUnsupported: []string{"aggregate"}})},
		{"dbr", funcSession(Config{Engine: EngineDBR})},
		{"dbr-interpreted", funcSession(Config{Engine: EngineDBRInterpreted})},
		{"photon-par4", funcSession(Config{Parallelism: 4})},
	}
	run := func(sess *Session, q string) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		_, err = sess.SQL(q)
		return err
	}
	for _, q := range wrongCalls {
		var want string
		for i, s := range sessions {
			err := run(s.sess, q)
			if err == nil || !strings.HasPrefix(err.Error(), "sql: ") {
				t.Errorf("%s: %s: err = %v, want an analysis error", s.name, q, err)
				continue
			}
			if i == 0 {
				want = err.Error()
			} else if err.Error() != want {
				t.Errorf("%s: %s: error %q, photon said %q", s.name, q, err, want)
			}
		}
	}
}

// TestFloatPredicatesAgreeAcrossEngines runs DOUBLE comparisons, BETWEEN
// and IN over NaN, ±0, ±Inf and NULL, in WHERE (also under NOT) and as
// values, on Photon, DBR codegen and DBR interpreted. Every engine follows
// IEEE: NaN fails =, <, <=, >, >=, BETWEEN and IN and passes <>.
func TestFloatPredicatesAgreeAcrossEngines(t *testing.T) {
	nan := math.NaN()
	schema := NewSchema(Col("k", Int64), Col("f", Float64), Col("g", Float64))
	rows := [][]any{
		{int64(1), nan, 1.0}, {int64(2), 1.0, nan}, {int64(3), nan, nan},
		{int64(4), 1.0, 1.0}, {int64(5), math.Copysign(0, -1), 0.0}, {int64(6), math.Inf(1), math.Inf(-1)},
		{int64(7), nil, nan}, {int64(8), 7.0, nil}, {int64(9), 0.5, 1.5},
	}
	preds := []string{
		"f = 1.0", "f <> 1.0", "f < 1.0", "f <= 1.0", "f > 1.0", "f >= 1.0",
		"f = g", "f <> g", "f < g", "f <= g", "f > g", "f >= g", "1.0 < f",
		"f = 0.0", "f = CAST('NaN' AS DOUBLE)", "f <> CAST('NaN' AS DOUBLE)",
		"CAST('NaN' AS DOUBLE) >= 1.0", "CAST('NaN' AS DOUBLE) <> 1.0",
		"f BETWEEN 0.5 AND 1.5", "CAST('NaN' AS DOUBLE) BETWEEN 0.5 AND 1.5",
		"f IN (1.0, 7.0)", "f IN (0.0, 1.0)", "CAST('NaN' AS DOUBLE) IN (1.0, 7.0)", "f IN (1.0, NULL)",
	}
	var queries []string
	for _, p := range preds {
		queries = append(queries,
			"SELECT k FROM d WHERE "+p+" ORDER BY k",
			"SELECT k FROM d WHERE NOT ("+p+") ORDER BY k")
		if !strings.Contains(p, "BETWEEN") && !strings.Contains(p, " IN ") {
			queries = append(queries, "SELECT k, "+p+" FROM d ORDER BY k")
		}
	}
	engines := []struct {
		name string
		cfg  Config
	}{
		{"photon", Config{}},
		{"dbr", Config{Engine: EngineDBR}},
		{"dbr-interpreted", Config{Engine: EngineDBRInterpreted}},
	}
	want := map[string]string{}
	for _, e := range engines {
		sess := NewSession(e.cfg)
		sess.RegisterRows("d", schema, rows)
		for _, q := range queries {
			res, err := sess.SQL(q)
			if err != nil {
				t.Errorf("%s: %s: %v", e.name, q, err)
				continue
			}
			got := fmt.Sprint(res.Rows)
			if w, ok := want[q]; !ok {
				want[q] = got
			} else if got != w {
				t.Errorf("%s\n  photon: %s\n  %s: %s", q, w, e.name, got)
			}
		}
	}
	// The IEEE answers on one row each: NaN against 1.0.
	for q, w := range map[string]string{
		"SELECT k FROM d WHERE f >= 1.0 ORDER BY k":              "[[2] [4] [6] [8]]",
		"SELECT k FROM d WHERE f <> 1.0 ORDER BY k":              "[[1] [3] [5] [6] [8] [9]]",
		"SELECT k FROM d WHERE f BETWEEN 0.5 AND 1.5 ORDER BY k": "[[2] [4] [9]]",
		"SELECT k FROM d WHERE f IN (1.0, 7.0) ORDER BY k":       "[[2] [4] [8]]",
	} {
		sess := NewSession(Config{})
		sess.RegisterRows("d", schema, rows)
		res, err := sess.SQL(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := fmt.Sprint(res.Rows); got != w {
			t.Errorf("%s: got %s, want %s", q, got, w)
		}
	}
}

// typeOperands are the operand kinds every operator, CAST and function of
// TestTypeCellsPin is applied to: each column type of funcSession's table, a
// BOOLEAN, a NULL, and an integer, a DECIMAL and a STRING literal.
var typeOperands = []string{"i", "f", "x", "s", "d", "ts", "(k > 2)", "NULL", "3", "1.5", "'2000-01-01'"}

// typeCells spells each cell: every CAST target and one-operand form over
// every operand kind, every binary form over every pair of them, and every
// name the function table knows over each.
func typeCells() []string {
	var cells []string
	for _, a := range typeOperands {
		for _, to := range []string{"INT", "BIGINT", "DOUBLE", "DECIMAL(12,2)", "STRING", "DATE", "TIMESTAMP", "BOOLEAN"} {
			cells = append(cells, fmt.Sprintf("CAST(%s AS %s)", a, to))
		}
		cells = append(cells, a+" + INTERVAL '1' DAY", "-"+a, a+" IS NULL", "COALESCE("+a+")")
	}
	for _, a := range typeOperands {
		for _, b := range typeOperands {
			for _, op := range []string{"+", "-", "*", "/", "%", "=", "<"} {
				cells = append(cells, a+" "+op+" "+b)
			}
			cells = append(cells, "CASE WHEN k > 3 THEN "+a+" ELSE "+b+" END", "COALESCE("+a+", "+b+")")
		}
	}
	for _, name := range sql.FunctionNames() {
		for _, a := range typeOperands {
			cells = append(cells, name+"("+a+")")
		}
	}
	return cells
}

// TestTypeCellsPin runs every cell of typeCells as SELECT <cell> FROM t at
// parallelism 1 on Photon, DBR codegen and DBR interpreted, and holds what
// each did to testdata/type_cells.golden, one line a cell: its result type
// and rows, "rejected" for one sql: error text on every engine, the error
// text for any other error, or "panic". A line splits per engine where the
// engines differ. At parallelism 1 a query's one task runs on the caller's
// goroutine, so a panic is recovered here; the session it happened in is
// replaced. Run with -update only for a change meant to move these cells,
// and list the cells that moved.
func TestTypeCellsPin(t *testing.T) {
	const path = "testdata/type_cells.golden"
	engines := []struct {
		name string
		cfg  Config
	}{
		{"photon", Config{Parallelism: 1}},
		{"dbr", Config{Engine: EngineDBR, Parallelism: 1}},
		{"dbr-interpreted", Config{Engine: EngineDBRInterpreted, Parallelism: 1}},
	}
	sessions := make([]*Session, len(engines))
	for i, e := range engines {
		sessions[i] = funcSession(e.cfg)
	}
	run := func(i int, q string) (res *Result, err error, panicked bool) {
		defer func() {
			if p := recover(); p != nil {
				panicked = true
				sessions[i] = funcSession(engines[i].cfg)
			}
		}()
		res, err = sessions[i].SQL(q)
		return res, err, false
	}
	var b strings.Builder
	for _, cell := range typeCells() {
		outs := make([]string, len(engines))
		errs := make([]string, len(engines))
		for i := range engines {
			res, err, panicked := run(i, "SELECT "+cell+" FROM t")
			switch {
			case panicked:
				outs[i] = "panic"
			case err != nil:
				errs[i] = err.Error()
				outs[i] = "error: " + errs[i]
			default:
				outs[i] = fmt.Sprintf("%v %v", res.Schema.Fields[0].Type, res.Rows)
			}
		}
		switch {
		case strings.HasPrefix(errs[0], "sql: ") && !slices.ContainsFunc(errs, func(e string) bool { return e != errs[0] }):
			fmt.Fprintf(&b, "%s => rejected\n", cell)
		case !slices.ContainsFunc(outs, func(o string) bool { return o != outs[0] }):
			fmt.Fprintf(&b, "%s => %s\n", cell, outs[0])
		default:
			parts := make([]string, len(engines))
			for i, e := range engines {
				parts[i] = e.name + ": " + outs[i]
			}
			fmt.Fprintf(&b, "%s => %s\n", cell, strings.Join(parts, " | "))
		}
	}

	got := b.String()
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

// TestTypeCellsAgree reads testdata/type_cells.golden: no cell panics or
// fails as a task, and every cell runs alike on every engine or is one
// analysis error.
func TestTypeCellsAgree(t *testing.T) {
	golden, err := os.ReadFile("testdata/type_cells.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		_, out, _ := strings.Cut(line, " => ")
		if out == "panic" || strings.HasPrefix(out, "error: ") || strings.HasPrefix(out, "photon: ") {
			t.Errorf("%s", line)
		}
	}
}
