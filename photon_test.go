package photon

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"photon/internal/types"
	"photon/internal/vector"
)

func peopleSession(t *testing.T, cfg ...Config) *Session {
	t.Helper()
	sess := NewSession(cfg...)
	schema := NewSchema(
		Col("name", String),
		Col("team", String),
		Col("score", Int64),
	)
	sess.RegisterRows("people", schema, [][]any{
		{"ada", "core", int64(95)},
		{"grace", "core", int64(88)},
		{"alan", "infra", int64(75)},
		{"edsger", "infra", int64(91)},
		{"barbara", "core", nil},
	})
	return sess
}

func TestSessionSQL(t *testing.T) {
	sess := peopleSession(t)
	res, err := sess.SQL("SELECT team, count(*) cnt, avg(score) avg_score FROM people GROUP BY team ORDER BY team")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0] != "core" || res.Rows[0][1].(int64) != 3 {
		t.Errorf("core row = %v", res.Rows[0])
	}
	if out := res.String(); !strings.Contains(out, "core") {
		t.Errorf("render: %s", out)
	}
}

// TestResultStringFormatsValues: the rendered result prints DATE and
// TIMESTAMP in SQL form and NULL as NULL.
func TestResultStringFormatsValues(t *testing.T) {
	sess := NewSession()
	ts, err := ParseTimestamp("2020-01-02 03:04:05")
	if err != nil {
		t.Fatal(err)
	}
	d, err := types.ParseDate("2020-01-02")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RegisterRows("t", NewSchema(Col("ts", Timestamp), Col("d", Date), Col("n", Int64)),
		[][]any{{ts, d, nil}}); err != nil {
		t.Fatal(err)
	}
	res, err := sess.SQL("SELECT ts, d, n FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.String(), "ts | d | n\n2020-01-02 03:04:05 | 2020-01-02 | NULL\n"; got != want {
		t.Errorf("render = %q, want %q", got, want)
	}
}

// TestRegisterRowsRejectsMistypedRows: rows that do not fit the schema are
// an error naming the table, the row, the column and both types — not a
// panic — and the catalog keeps what it held.
func TestRegisterRowsRejectsMistypedRows(t *testing.T) {
	sess := peopleSession(t)
	schema := NewSchema(Col("k", Int64))
	for _, name := range []string{"people", "fresh"} {
		var err error
		func() {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("panic: %v", p)
				}
			}()
			err = sess.RegisterRows(name, schema, [][]any{{"x"}})
		}()
		if err == nil || strings.HasPrefix(err.Error(), "panic: ") {
			t.Fatalf("RegisterRows(%s): err = %v, want an error", name, err)
		}
		for _, w := range []string{"table " + name + ": ", "row 0", "column 0", `"k"`, "BIGINT", "string"} {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("error %q does not name %s", err, w)
			}
		}
	}
	res, err := sess.SQL("SELECT count(*) FROM people")
	if err != nil || res.Rows[0][0] != int64(5) {
		t.Errorf("people after a failed registration: %v, %v; want 5 rows", res, err)
	}
	if _, err := sess.SQL("SELECT k FROM fresh"); err == nil {
		t.Error("a failed registration registered a table")
	}
}

func TestSessionEnginesAgree(t *testing.T) {
	q := "SELECT upper(name), score + 1 FROM people WHERE score >= 80 ORDER BY name"
	photon, err := peopleSession(t).SQL(q)
	if err != nil {
		t.Fatal(err)
	}
	dbr, err := peopleSession(t, Config{Engine: EngineDBR}).SQL(q)
	if err != nil {
		t.Fatal(err)
	}
	interp, err := peopleSession(t, Config{Engine: EngineDBRInterpreted}).SQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(photon.Rows) != 3 || len(dbr.Rows) != 3 || len(interp.Rows) != 3 {
		t.Fatalf("row counts: %d/%d/%d", len(photon.Rows), len(dbr.Rows), len(interp.Rows))
	}
	for i := range photon.Rows {
		for c := range photon.Rows[i] {
			if photon.Rows[i][c] != dbr.Rows[i][c] || photon.Rows[i][c] != interp.Rows[i][c] {
				t.Fatalf("engines disagree at row %d: %v / %v / %v", i, photon.Rows[i], dbr.Rows[i], interp.Rows[i])
			}
		}
	}
}

func TestSessionParallel(t *testing.T) {
	sess := peopleSession(t, Config{Parallelism: 4, SpillDir: t.TempDir()})
	res, err := sess.SQL("SELECT team, sum(score) FROM people GROUP BY team ORDER BY team")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].(int64) != 183 {
		t.Fatalf("parallel result: %v", res.Rows)
	}
}

func TestSessionDelta(t *testing.T) {
	sess := NewSession()
	schema := NewSchema(Col("id", Int64), Col("v", Float64))
	dir := filepath.Join(t.TempDir(), "tbl")
	dt, err := sess.CreateDeltaTable("events", dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := dt.AppendRows([][]any{{int64(1), 1.5}, {int64(2), 2.5}}); err != nil {
		t.Fatal(err)
	}
	if err := dt.AppendRows([][]any{{int64(3), 3.5}}); err != nil {
		t.Fatal(err)
	}
	res, err := sess.SQL("SELECT count(*), sum(v) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 3 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	// Time travel back to the first append.
	if err := dt.AsOf(1); err != nil {
		t.Fatal(err)
	}
	res, err = sess.SQL("SELECT count(*) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 2 {
		t.Errorf("time travel count = %v", res.Rows[0][0])
	}
	// Reopen from disk in a fresh session.
	sess2 := NewSession()
	if _, err := sess2.OpenDeltaTable("events", dir); err != nil {
		t.Fatal(err)
	}
	res, err = sess2.SQL("SELECT count(*) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 3 {
		t.Errorf("reopened count = %v", res.Rows[0][0])
	}
}

// TestDeltaWriteRejectsMistypedRows: rows that do not fit the table's schema
// are an error naming the row, the column, the declared type and the Go
// type — not a panic — and neither AppendRows nor Overwrite writes or
// commits anything.
func TestDeltaWriteRejectsMistypedRows(t *testing.T) {
	sess := NewSession()
	dir := filepath.Join(t.TempDir(), "tbl")
	dt, err := sess.CreateDeltaTable("t", dir, NewSchema(Col("id", Int64), Col("name", String)))
	if err != nil {
		t.Fatal(err)
	}
	if err := dt.AppendRows([][]any{{int64(1), "a"}}); err != nil {
		t.Fatal(err)
	}
	listing := func() string {
		var names []string
		for _, sub := range []string{dir, filepath.Join(dir, "_delta_log")} {
			entries, err := os.ReadDir(sub)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				names = append(names, e.Name())
			}
		}
		return strings.Join(names, " ")
	}
	before := listing()
	write := func(f func([][]any) error, rows [][]any) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return f(rows)
	}
	for _, c := range []struct {
		rows [][]any
		want []string // in the error
	}{
		{[][]any{{int64(2), "b"}, {int64(1)}}, []string{"row 1", "1 value", "2 columns"}},
		{[][]any{{1, "x"}}, []string{"row 0", "column 0", `"id"`, "BIGINT", "int"}},
		{[][]any{{int64(2), "b"}, {int64(1), 7}}, []string{"row 1", "column 1", `"name"`, "STRING", "int"}},
	} {
		for name, f := range map[string]func([][]any) error{"AppendRows": dt.AppendRows, "Overwrite": dt.Overwrite} {
			err := write(f, c.rows)
			if err == nil || strings.HasPrefix(err.Error(), "panic: ") {
				t.Errorf("%s(%v): err = %v, want an error", name, c.rows, err)
				continue
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("%s(%v): error %q does not name %s", name, c.rows, err, w)
				}
			}
		}
	}
	if after := listing(); after != before {
		t.Errorf("failed writes left files behind:\nbefore %s\nafter  %s", before, after)
	}
	if v, err := dt.Version(); err != nil || v != 1 {
		t.Errorf("version = %d, %v; want 1", v, err)
	}
	res, err := sess.SQL("SELECT count(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 1 {
		t.Errorf("count = %v, want 1", res.Rows[0][0])
	}
}

func TestSessionPartialRollout(t *testing.T) {
	sess := peopleSession(t, Config{PhotonUnsupported: []string{"aggregate"}})
	res, err := sess.SQL("SELECT team, count(*) FROM people GROUP BY team ORDER BY team")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("fallback rows = %d", len(res.Rows))
	}
}

func TestSessionExplain(t *testing.T) {
	sess := peopleSession(t)
	out, err := sess.Explain("SELECT name FROM people WHERE score > 90")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Scan(people") || !strings.Contains(out, "filter=") {
		t.Errorf("explain missing pushed filter:\n%s", out)
	}
}

func TestSessionErrors(t *testing.T) {
	sess := peopleSession(t)
	if _, err := sess.SQL("SELECT nope FROM people"); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := sess.SQL("SELECT * FROM missing"); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := sess.SQL("SELEC broken"); err == nil {
		t.Error("syntax error accepted")
	}
}

func TestSQLWithProfile(t *testing.T) {
	sess := peopleSession(t)
	p, err := sess.SQLWithProfile("SELECT team, count(*) FROM people WHERE score > 10 GROUP BY team")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Result.Rows) != 2 {
		t.Fatalf("rows = %d", len(p.Result.Rows))
	}
	for _, frag := range []string{"HashAgg", "Filter", "MemScan", "in=", "out="} {
		if !strings.Contains(p.Operators, frag) {
			t.Errorf("profile missing %q:\n%s", frag, p.Operators)
		}
	}
	if p.Transitions != 0 {
		t.Errorf("transitions = %d", p.Transitions)
	}
}

// TestDecimalNarrownessIsOfValues: nothing checks a value against its
// column's declared precision, so whether a decimal vector may be read by
// its low limbs has to come from the values. A DECIMAL(10,2) column holding
// 2^64+1 must compare, sum and multiply right, serial and parallel, from
// memory and from Parquet.
func TestDecimalNarrownessIsOfValues(t *testing.T) {
	wide := types.Decimal128{Lo: 1, Hi: 1} // unscaled 2^64+1
	one := types.DecimalFromInt64(100)     // 1.00
	rows := [][]any{{wide}}
	for i := 0; i < 7; i++ {
		rows = append(rows, []any{one})
	}
	schema := NewSchema(Col("x", Decimal(10, 2)))
	want := []struct {
		q string
		v any
	}{
		{"SELECT count(*) FROM t WHERE x > 5.00", int64(1)},
		{"SELECT sum(x) FROM t", types.Decimal128{Lo: 701, Hi: 1}},
		{"SELECT sum(x * 2) FROM t", types.Decimal128{Lo: 140200, Hi: 200}}, // the 2 is cast to 2.00
	}
	for _, src := range []string{"mem", "delta"} {
		for _, par := range []int{1, 4} {
			sess := NewSession(Config{Parallelism: par, SpillDir: t.TempDir()})
			if src == "mem" {
				sess.RegisterRows("t", schema, rows)
			} else {
				dt, err := sess.CreateDeltaTable("t", filepath.Join(t.TempDir(), "t"), schema)
				if err != nil {
					t.Fatal(err)
				}
				if err := dt.AppendRows(rows); err != nil {
					t.Fatal(err)
				}
			}
			for _, w := range want {
				label := fmt.Sprintf("%s par=%d: %s", src, par, w.q)
				res, err := sess.SQL(w.q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(res.Rows) != 1 || res.Rows[0][0] != w.v {
					t.Errorf("%s = %v, want %v", label, res.Rows, w.v)
				}
			}
		}
	}
}

// TestRegisteredBatchesOfAnySize: a table registered through RegisterBatches
// may hold batches of any row count, in any order — one batch larger than
// the engine's batch size, or a small batch ahead of full ones. Every query
// over it must return what the same rows return when registered through
// RegisterRows, serial and parallel.
func TestRegisteredBatchesOfAnySize(t *testing.T) {
	schema := NewSchema(Col("k", Int64), Col("w", Int64))
	dim := NewSchema(Col("k", Int64))
	batch := func(lo, n int) *Batch {
		b := vector.NewBatch(schema, n)
		for i := 0; i < n; i++ {
			b.Vecs[0].I64[i] = int64((lo + i) % 50)
			b.Vecs[1].I64[i] = int64(lo + i)
		}
		b.NumRows = n
		return b
	}
	var dimRows [][]any
	for k := 0; k < 50; k += 7 {
		dimRows = append(dimRows, []any{int64(k)})
	}
	cases := []struct {
		name  string
		sizes []int
		q     string
	}{
		{"one-oversize-batch", []int{5000}, "SELECT sum(w * 2 + 1) FROM t"},
		{"small-batch-first", []int{100, 2048, 2048}, "SELECT count(*), sum(w) FROM t JOIN d ON t.k = d.k"},
	}
	for _, c := range cases {
		var batches []*Batch
		var rows [][]any
		lo := 0
		for _, n := range c.sizes {
			b := batch(lo, n)
			batches = append(batches, b)
			for i := 0; i < n; i++ {
				rows = append(rows, []any{b.Vecs[0].I64[i], b.Vecs[1].I64[i]})
			}
			lo += n
		}
		for _, par := range []int{1, 4} {
			label := fmt.Sprintf("%s par=%d", c.name, par)
			ref := NewSession(Config{Parallelism: par})
			ref.RegisterRows("t", schema, rows)
			ref.RegisterRows("d", dim, dimRows)
			want, err := ref.SQL(c.q)
			if err != nil {
				t.Fatalf("%s reference: %v", label, err)
			}
			sess := NewSession(Config{Parallelism: par})
			sess.RegisterBatches("t", schema, batches)
			sess.RegisterRows("d", dim, dimRows)
			got, err := sess.SQL(c.q)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if g, w := fmt.Sprint(got.Rows), fmt.Sprint(want.Rows); g != w {
				t.Errorf("%s = %s, want %s", label, g, w)
			}
		}
	}
}

// TestRegisteredBatchPositionList: a registered batch's position list says
// which of its rows the table holds, on every engine.
func TestRegisteredBatchPositionList(t *testing.T) {
	schema := NewSchema(Col("a", Int64), Col("s", String))
	b := vector.NewBatch(schema, 3)
	b.AppendRow(int64(1), "one")
	b.AppendRow(int64(2), "two")
	b.AppendRow(int64(3), "three")
	b.Sel = []int32{0, 2}
	for _, engine := range []Engine{EnginePhoton, EngineDBRInterpreted} {
		sess := NewSession(Config{Engine: engine})
		sess.RegisterBatches("t", schema, []*Batch{b})
		got, err := sess.SQL("SELECT a, s FROM t ORDER BY a")
		if err != nil {
			t.Fatal(err)
		}
		if g := fmt.Sprint(got.Rows); g != "[[1 one] [3 three]]" {
			t.Errorf("%v: rows %s, want the two active rows", engine, g)
		}
	}
}

// TestRegisteredStringBatches: string columns holding NULLs, empty strings,
// repeated values and payloads larger than 4 KB, registered through
// RegisterBatches (one allocation per value) and through RegisterRows, must
// return what the interpreted row engine returns for the same rows — serial
// and parallel, over sparse selections, through sorts, aggregations, joins
// and string functions that keep or copy the strings.
func TestRegisteredStringBatches(t *testing.T) {
	schema := NewSchema(Col("k", Int64), Col("s", String), Col("w", Int64))
	dim := NewSchema(Col("k", Int64), Col("name", String))
	big := strings.Repeat("x", 5000)
	var rows [][]any
	for i := 0; i < 5200; i++ {
		var s any
		switch {
		case i%11 == 0:
			s = nil
		case i%13 == 0:
			s = ""
		case i%97 == 0:
			s = fmt.Sprintf("%s-%d", big, i%5)
		case i%7 == 0:
			s = "héllo wörld"
		default:
			s = fmt.Sprintf("val-%03d", i%40)
		}
		rows = append(rows, []any{int64(i % 50), s, int64(i)})
	}
	var dimRows [][]any
	for k := 0; k < 50; k += 3 {
		name := any(fmt.Sprintf("dim-%02d", k))
		if k%9 == 0 {
			name = nil
		}
		dimRows = append(dimRows, []any{int64(k), name})
	}
	// Batches of 100, 2,048 and the rest, each value its own allocation.
	batches := func() []*Batch {
		var out []*Batch
		for lo, n := 0, 100; lo < len(rows); lo, n = lo+n, 2048 {
			hi := min(lo+n, len(rows))
			b := vector.NewBatch(schema, hi-lo)
			for _, r := range rows[lo:hi] {
				b.AppendRow(r...)
			}
			out = append(out, b)
		}
		return out
	}
	queries := []string{
		"SELECT k, s, w FROM t WHERE w % 13 = 1 ORDER BY w",
		"SELECT s, count(*), max(w) FROM t WHERE w % 5 = 0 GROUP BY s ORDER BY s",
		"SELECT t.w, t.s, d.name FROM t JOIN d ON t.k = d.k WHERE t.w % 11 = 2 ORDER BY t.w",
		"SELECT d.name AS n, count(*) FROM t JOIN d ON t.k = d.k WHERE t.w % 3 = 0 GROUP BY d.name ORDER BY n",
		"SELECT upper(s), substring(s, 2, 3), length(s) FROM t WHERE w % 17 = 0 ORDER BY w",
		"SELECT count(DISTINCT s), count(s), count(*) FROM t WHERE w % 3 = 1",
		"SELECT s FROM t WHERE length(s) > 4000 ORDER BY w LIMIT 7",
	}
	ref := NewSession(Config{Engine: EngineDBRInterpreted})
	if err := ref.RegisterRows("t", schema, rows); err != nil {
		t.Fatal(err)
	}
	if err := ref.RegisterRows("d", dim, dimRows); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want, err := ref.SQL(q)
		if err != nil {
			t.Fatalf("reference %s: %v", q, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("reference %s returned no rows", q)
		}
		for _, via := range []string{"RegisterBatches", "RegisterRows"} {
			for _, par := range []int{1, 4} {
				sess := NewSession(Config{Parallelism: par, SpillDir: t.TempDir()})
				if via == "RegisterBatches" {
					sess.RegisterBatches("t", schema, batches())
				} else if err := sess.RegisterRows("t", schema, rows); err != nil {
					t.Fatal(err)
				}
				if err := sess.RegisterRows("d", dim, dimRows); err != nil {
					t.Fatal(err)
				}
				got, err := sess.SQL(q)
				if err != nil {
					t.Fatalf("%s par=%d %s: %v", via, par, q, err)
				}
				if g, w := fmt.Sprint(got.Rows), fmt.Sprint(want.Rows); g != w {
					t.Errorf("%s par=%d %s:\n got %.300s\nwant %.300s", via, par, q, g, w)
				}
			}
		}
	}
}

// TestRegisteredNonASCIIColumn: registration records each string column's
// ASCII verdict (internal/catalog tests it), and a column that is not all
// ASCII still takes the Unicode path of the string functions.
func TestRegisteredNonASCIIColumn(t *testing.T) {
	schema := NewSchema(Col("a", String), Col("u", String))
	sess := NewSession()
	if err := sess.RegisterRows("t", schema, [][]any{{"abc", "héllo"}, {"xyz", "wörld"}, {nil, nil}}); err != nil {
		t.Fatal(err)
	}
	res, err := sess.SQL("SELECT upper(a), upper(u), substring(u, 2, 3), length(u) FROM t WHERE a IS NOT NULL ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(res.Rows), "[[ABC HÉLLO éll 5] [XYZ WÖRLD örl 5]]"; got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}
