package sql

import (
	"strings"
	"testing"
)

func TestLexer(t *testing.T) {
	toks, err := LexAll(`SELECT a, 'it''s', 12.5, x>=3 -- comment
FROM t;`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind == TokEOF {
			break
		}
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "it's", ",", "12.5", ",", "x", ">=", "3", "FROM", "t", ";"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Errorf("tokens: %v", texts)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := LexAll("'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := LexAll("a @ b"); err == nil {
		t.Error("bad character accepted")
	}
}

func mustParse(t *testing.T, q string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return stmt
}

func TestParseBasicSelect(t *testing.T) {
	stmt := mustParse(t, "SELECT a, b + 1 AS c, * FROM t WHERE a > 5 GROUP BY a HAVING count(*) > 2 ORDER BY c DESC LIMIT 7")
	if len(stmt.Items) != 3 || !stmt.Items[2].Star {
		t.Errorf("items: %+v", stmt.Items)
	}
	if stmt.Items[1].Alias != "c" {
		t.Errorf("alias: %q", stmt.Items[1].Alias)
	}
	if stmt.Where == nil || stmt.Having == nil {
		t.Error("where/having missing")
	}
	if len(stmt.GroupBy) != 1 || len(stmt.OrderBy) != 1 || !stmt.OrderBy[0].Desc {
		t.Error("group/order wrong")
	}
	if stmt.Limit != 7 {
		t.Errorf("limit = %d", stmt.Limit)
	}
}

func TestParseJoins(t *testing.T) {
	stmt := mustParse(t, `SELECT * FROM a JOIN b ON a.x = b.x LEFT OUTER JOIN c ON c.y = b.y
		LEFT SEMI JOIN d ON d.z = a.z LEFT ANTI JOIN e ON e.w = a.w`)
	j, ok := stmt.From.(*JoinExpr)
	if !ok || j.Kind != JoinLeftAnti {
		t.Fatalf("outer join kind: %+v", stmt.From)
	}
	j2 := j.Left.(*JoinExpr)
	if j2.Kind != JoinLeftSemi {
		t.Error("semi join kind")
	}
	// Comma joins become cross joins.
	stmt = mustParse(t, "SELECT * FROM a, b, c WHERE a.x = b.x")
	if j, ok := stmt.From.(*JoinExpr); !ok || j.Kind != JoinCross {
		t.Error("comma join should be cross")
	}
}

func TestParseSubquery(t *testing.T) {
	stmt := mustParse(t, "SELECT s.v FROM (SELECT a v FROM t) s WHERE s.v > 1")
	sub, ok := stmt.From.(*Subquery)
	if !ok || sub.Alias != "s" {
		t.Fatalf("subquery: %+v", stmt.From)
	}
	if len(sub.Stmt.Items) != 1 {
		t.Error("inner items")
	}
}

func TestParseExpressions(t *testing.T) {
	queries := []string{
		"SELECT CASE WHEN a > 1 THEN 'x' WHEN a > 0 THEN 'y' ELSE 'z' END FROM t",
		"SELECT CAST(a AS DECIMAL(12,2)), CAST(b AS BIGINT) FROM t",
		"SELECT a FROM t WHERE b BETWEEN 1 AND 10 AND c NOT BETWEEN 2 AND 3",
		"SELECT a FROM t WHERE b IN (1, 2, 3) OR c NOT IN ('x', 'y')",
		"SELECT a FROM t WHERE b LIKE 'pre%' AND c NOT LIKE '%suf'",
		"SELECT a FROM t WHERE b IS NULL AND c IS NOT NULL",
		"SELECT -a, +b, NOT (a > b) FROM t",
		"SELECT substring(a, 1, 3), upper(b), a || b FROM t",
		"SELECT DATE '2021-01-01' + INTERVAL '3' MONTH FROM t",
		"SELECT count(DISTINCT a), sum(b * (1 - c)) FROM t",
		"SELECT EXTRACT(YEAR FROM d) FROM t",
		"SELECT a FROM t WHERE d >= DATE '1994-01-01' AND d < DATE '1994-01-01' + INTERVAL '1' YEAR",
		"SELECT day, month, year FROM t", // function keywords as column names
	}
	for _, q := range queries {
		mustParse(t, q)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP a",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t JOIN b",         // missing ON
		"SELECT CASE END FROM t",         // no WHEN
		"SELECT CAST(a, b) FROM t",       // bad cast
		"SELECT a FROM t WHERE b LIKE 5", // non-string pattern
		"SELECT a FROM t trailing tokens oops (",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted invalid SQL: %q", q)
		}
	}
}

func TestParseTypeNames(t *testing.T) {
	cases := map[string]string{
		"BIGINT":        "BIGINT",
		"INT":           "INT",
		"DOUBLE":        "DOUBLE",
		"STRING":        "STRING",
		"DATE":          "DATE",
		"DECIMAL(12,2)": "DECIMAL(12,2)",
	}
	for in, want := range cases {
		dt, err := parseTypeName(in)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if dt.String() != want {
			t.Errorf("%s -> %s, want %s", in, dt, want)
		}
	}
	if _, err := parseTypeName("BLOB"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestAstEqual(t *testing.T) {
	a1 := mustParse(t, "SELECT year(d) FROM t GROUP BY year(d)")
	g := a1.GroupBy[0]
	item := a1.Items[0].Expr
	if !astEqual(item, g) {
		t.Error("identical function calls should compare equal")
	}
	b := mustParse(t, "SELECT month(d) FROM t").Items[0].Expr
	if astEqual(item, b) {
		t.Error("different functions compared equal")
	}
	// Qualified vs unqualified columns are compatible.
	c1 := &ColName{Table: "t", Name: "x"}
	c2 := &ColName{Name: "x"}
	if !astEqual(c1, c2) {
		t.Error("qualified/unqualified mismatch")
	}
	c3 := &ColName{Table: "u", Name: "x"}
	if astEqual(c1, c3) {
		t.Error("different qualifiers compared equal")
	}
	// Every scalar kind matches itself, and differs in any field.
	for _, q := range []string{
		"CASE WHEN x > 1 THEN 'a' ELSE NULL END", "x IS NOT NULL", "d + INTERVAL '3' DAY",
		"CAST(x AS DOUBLE)", "-x", "COUNT(DISTINCT x)", "TRUE", "DATE '1998-01-01'",
	} {
		e1 := mustParse(t, "SELECT "+q+" FROM t").Items[0].Expr
		e2 := mustParse(t, "SELECT "+q+" FROM t").Items[0].Expr
		if !astEqual(e1, e2) {
			t.Errorf("%s does not equal itself", q)
		}
	}
	for _, p := range [][2]string{
		{"CASE WHEN x > 1 THEN 1 END", "CASE WHEN x > 2 THEN 1 END"},
		{"CASE WHEN x > 1 THEN 1 END", "CASE WHEN x > 1 THEN 1 ELSE 0 END"},
		{"x IS NULL", "x IS NOT NULL"},
		{"d + INTERVAL '3' DAY", "d + INTERVAL '3' MONTH"},
		{"COUNT(x)", "COUNT(DISTINCT x)"},
	} {
		e1 := mustParse(t, "SELECT "+p[0]+" FROM t").Items[0].Expr
		e2 := mustParse(t, "SELECT "+p[1]+" FROM t").Items[0].Expr
		if astEqual(e1, e2) {
			t.Errorf("%s equals %s", p[0], p[1])
		}
	}
	// A parameter never equals the verbatim literal it was lifted from.
	num := &NumberLit{Text: "1", IsInt: true}
	if astEqual(&ParamLit{Inner: num}, num) || astEqual(num, &ParamLit{Inner: num}) {
		t.Error("a parameter compared equal to a verbatim literal")
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	stmt := mustParse(t, "SELECT a + b * c FROM t")
	bin := stmt.Items[0].Expr.(*BinaryExpr)
	if bin.Op != "+" {
		t.Fatalf("top op = %s", bin.Op)
	}
	if inner, ok := bin.Right.(*BinaryExpr); !ok || inner.Op != "*" {
		t.Error("* should bind tighter than +")
	}
	stmt = mustParse(t, "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or := stmt.Where.(*BinaryExpr)
	if or.Op != "OR" {
		t.Fatalf("top pred = %s", or.Op)
	}
	if and, ok := or.Right.(*BinaryExpr); !ok || and.Op != "AND" {
		t.Error("AND should bind tighter than OR")
	}
}
