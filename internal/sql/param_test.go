package sql

import (
	"strings"
	"testing"
)

// normalize parameterizes and renders the cache key for q.
func normalize(t *testing.T, q string) (string, int) {
	t.Helper()
	stmt := mustParse(t, q)
	raws := Parameterize(stmt)
	norm, err := NormalizeStmt(stmt)
	if err != nil {
		t.Fatalf("normalize %q: %v", q, err)
	}
	return norm, len(raws)
}

func TestNormalizeSharesLiteralShapes(t *testing.T) {
	a, na := normalize(t, "SELECT x FROM t WHERE x < 7 AND y = 'abc'")
	b, nb := normalize(t, "SELECT x FROM t WHERE x < 42 AND y = 'zed'")
	if a != b {
		t.Errorf("same shape normalized differently:\n  %s\n  %s", a, b)
	}
	if na != 2 || nb != 2 {
		t.Errorf("expected 2 params each, got %d and %d", na, nb)
	}
	if !strings.Contains(a, "?") {
		t.Errorf("normalized form has no parameter markers: %s", a)
	}
}

func TestNormalizeDistinguishesStructure(t *testing.T) {
	a, _ := normalize(t, "SELECT x FROM t WHERE x < 7")
	b, _ := normalize(t, "SELECT x FROM t WHERE x > 7")
	c, _ := normalize(t, "SELECT y FROM t WHERE x < 7")
	if a == b || a == c {
		t.Errorf("different shapes share a key:\n  %s\n  %s\n  %s", a, b, c)
	}
	// A result column is named as the query spells it, so spellings that
	// differ in case name different columns.
	d, _ := normalize(t, "SELECT X FROM t WHERE x < 7")
	e, _ := normalize(t, "SELECT x AS Y FROM t WHERE x < 7")
	f, _ := normalize(t, "SELECT x AS y FROM t WHERE x < 7")
	if a == d || e == f {
		t.Errorf("column names differing in case share a key:\n  %s\n  %s\n  %s\n  %s", a, d, e, f)
	}
}

func TestParameterizeExclusions(t *testing.T) {
	// GROUP BY and ORDER BY expressions are matched structurally against
	// select items, so their literals — and the matching select-item
	// literals' positions — must survive verbatim in the key.
	a, _ := normalize(t, "SELECT g, count(*) FROM t GROUP BY g ORDER BY g")
	if strings.Contains(a, "?") {
		t.Errorf("group/order-only query grew parameters: %s", a)
	}
	// Interval arithmetic derives result types from the literal operands.
	b, nb := normalize(t, "SELECT x FROM t WHERE d < DATE '1998-09-02' + INTERVAL '3' DAY")
	if nb != 0 {
		t.Errorf("interval arithmetic operands parameterized (%d params): %s", nb, b)
	}
	// LIKE patterns compile at analysis time.
	c, nc := normalize(t, "SELECT x FROM t WHERE s LIKE '%ab%'")
	if nc != 0 {
		t.Errorf("LIKE pattern parameterized: %s", c)
	}
	// IN-list members and BETWEEN bounds do parameterize.
	d, nd := normalize(t, "SELECT x FROM t WHERE x IN (1, 2, 3) AND y BETWEEN 4 AND 5")
	if nd != 5 {
		t.Errorf("expected 5 params for IN+BETWEEN, got %d: %s", nd, d)
	}
}

func TestPlaceholderParsing(t *testing.T) {
	stmt := mustParse(t, "SELECT x FROM t WHERE x < ? AND y = ?")
	if n := CountPlaceholders(stmt); n != 2 {
		t.Fatalf("CountPlaceholders=%d, want 2", n)
	}
	if err := SubstituteArgs(stmt, []any{7, "abc"}); err != nil {
		t.Fatal(err)
	}
	if n := CountPlaceholders(stmt); n != 0 {
		t.Errorf("%d placeholders survived substitution", n)
	}
}

func TestSubstituteArgsValidation(t *testing.T) {
	if err := SubstituteArgs(mustParse(t, "SELECT x FROM t WHERE x < ?"), nil); err == nil {
		t.Error("missing argument accepted")
	}
	if err := SubstituteArgs(mustParse(t, "SELECT x FROM t WHERE x < ?"), []any{1, 2}); err == nil {
		t.Error("extra argument accepted")
	}
	if err := SubstituteArgs(mustParse(t, "SELECT x FROM t"), []any{1}); err == nil {
		t.Error("argument without placeholder accepted")
	}
	if err := SubstituteArgs(mustParse(t, "SELECT x FROM t WHERE x < ?"), []any{struct{}{}}); err == nil {
		t.Error("unsupported argument type accepted")
	}
}

func TestSubstituteArgsTypes(t *testing.T) {
	stmt := mustParse(t, "SELECT x FROM t WHERE a = ? AND b = ? AND c = ? AND d = ? AND e IS NULL AND f = ?")
	if err := SubstituteArgs(stmt, []any{int64(1), 2.5, "s", true, nil}); err != nil {
		t.Fatal(err)
	}
	norm, err := NormalizeStmt(stmt)
	if err != nil {
		t.Fatal(err)
	}
	// Substituted literals are real AST literals: the float must render
	// with a decimal point (keeping its self-derived type fractional) and
	// nil as NULL.
	for _, want := range []string{"2.5", `"s"`, "TRUE", "NULL"} {
		if !strings.Contains(norm, want) {
			t.Errorf("normalized %q missing %q", norm, want)
		}
	}
}
