package expr

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"photon/internal/types"
	"photon/internal/vector"
)

// TestInStringsAroundLinearMax checks string IN-lists of 1, 8, 9 and 16
// values — scanned up to inLinearMax, hashed above it — against a
// reference. Lists hold duplicates, the empty string and optionally a NULL
// literal; rows include NULL. A row is TRUE where its value is listed, NULL
// where it is NULL or is missing from a list holding NULL, FALSE otherwise,
// and NOT IN keeps exactly the FALSE rows.
func TestInStringsAroundLinearMax(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := []string{"", "a", "ab", "abc", "b", "ba", "δ", "δέ", "MAIL", "SHIP", "AIR", "REG AIR",
		"TRUCK", "RAIL", "FOB", "x", "yy", "zzz", "zz", "SM CASE", "SM BOX"}
	sch := types.NewSchema(types.Field{Name: "s", Type: types.StringType, Nullable: true})
	for _, size := range []int{1, 8, 9, 16} {
		for _, withNull := range []bool{false, true} {
			name := fmt.Sprintf("values=%d/null=%v", size, withNull)
			var lits []*Literal
			listed := map[string]bool{}
			for len(lits) < size {
				w := words[rng.Intn(len(words))]
				switch len(lits) {
				case 0:
					w = ""
				case 2:
					w = lits[1].Val.(string) // a duplicate
				}
				lits = append(lits, StringLit(w))
				listed[w] = true
			}
			if withNull {
				lits = append(lits, NullLit(types.StringType))
			}
			in := NewIn(colRef(sch, 0), lits)
			if hashed := in.strSet != nil; hashed != (size > inLinearMax) {
				t.Fatalf("%s: hashed=%v, want %v", name, hashed, size > inLinearMax)
			}
			b := vector.NewBatch(sch, 64)
			for i := 0; i < 64; i++ {
				if rng.Intn(6) == 0 {
					b.AppendRow(nil)
				} else {
					b.AppendRow(words[rng.Intn(len(words))])
				}
			}
			for _, selective := range []bool{false, true} {
				b.Sel = nil
				if selective {
					b.SetSel([]int32{0, 3, 4, 9, 10, 11, 30, 31, 50, 63})
				}
				var wantTrue, wantNull, wantFalse []int32
				for i := 0; i < b.NumRows; i++ {
					if b.Sel != nil && !slices.Contains(b.Sel, int32(i)) {
						continue
					}
					v := b.Vecs[0]
					switch {
					case v.Nulls[i] != 0:
						wantNull = append(wantNull, int32(i))
					case listed[string(v.Str[i])]:
						wantTrue = append(wantTrue, int32(i))
					case withNull:
						wantNull = append(wantNull, int32(i))
					default:
						wantFalse = append(wantFalse, int32(i))
					}
				}
				ctx := NewCtx(64)
				gotTrue, err := in.EvalSel(ctx, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				gotNull, err := in.NullSel(ctx, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				gotFalse, err := NewNot(in).EvalSel(ctx, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(gotTrue, wantTrue) || !slices.Equal(gotNull, wantNull) || !slices.Equal(gotFalse, wantFalse) {
					t.Errorf("%s selective=%v:\nTRUE  %v, want %v\nNULL  %v, want %v\nFALSE %v, want %v",
						name, selective, gotTrue, wantTrue, gotNull, wantNull, gotFalse, wantFalse)
				}
			}
		}
	}
}

// BenchmarkInStrings measures what a string IN-list pays per row to look a
// value up, a map against a length-first linear scan, at several list
// lengths, on short random strings that mostly miss. Where the two cross
// is inLinearMax.
func BenchmarkInStrings(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	word := func() string {
		w := make([]byte, 3+rng.Intn(8))
		for i := range w {
			w[i] = byte('A' + rng.Intn(26))
		}
		return string(w)
	}
	for _, n := range []int{2, 4, 7, 8, 9, 12, 16} {
		vals := make([]string, n)
		set := make(map[string]struct{}, n)
		for i := range vals {
			vals[i] = word()
			set[vals[i]] = struct{}{}
		}
		probes := make([][]byte, 1024)
		for i := range probes {
			if i%8 == 0 {
				probes[i] = []byte(vals[rng.Intn(n)])
			} else {
				probes[i] = []byte(word())
			}
		}
		b.Run(fmt.Sprintf("map/values=%d", n), func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				if _, ok := set[string(probes[i&1023])]; ok {
					hits++
				}
			}
			benchSink = hits
		})
		b.Run(fmt.Sprintf("linear/values=%d", n), func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				p := probes[i&1023]
				for _, s := range vals {
					if s == string(p) {
						hits++
						break
					}
				}
			}
			benchSink = hits
		})
	}
}

var benchSink int

// TestInDecimalAtTheColumnScale: a DECIMAL IN-list matches at the column's
// scale. A coarser or finer literal with an exact value there matches it;
// one without (1.555 at scale 2) matches no row, not the row it rounds to.
// NOT IN keeps the rows found in neither, and none when the list holds a
// NULL.
func TestInDecimalAtTheColumnScale(t *testing.T) {
	dt := types.DecimalType(10, 2)
	sch := types.NewSchema(types.Field{Name: "x", Type: dt, Nullable: true})
	b := vector.NewBatch(sch, 8)
	for _, s := range []string{"1.50", "1.55", "-2.25", "0.00", "", "7.00", "1.56"} {
		if s == "" {
			b.AppendRow(nil)
			continue
		}
		d, _ := types.ParseDecimal(s, 2)
		b.AppendRow(d)
	}
	listed := map[string]bool{"1.50": true, "-2.25": true, "7.00": true}
	for _, withNull := range []bool{false, true} {
		lits := []*Literal{DecimalLit("1.5", 2, 1), DecimalLit("1.555", 5, 3), DecimalLit("-2.250", 5, 3), DecimalLit("7", 1, 0)}
		if withNull {
			lits = append(lits, NullLit(dt))
		}
		in := NewIn(colRef(sch, 0), lits)
		checkFilter(t, fmt.Sprintf("IN null=%v", withNull), in, b, func(r []any) any {
			return r[0] != nil && listed[types.FormatDecimal(r[0].(types.Decimal128), 2)]
		})
		checkFilter(t, fmt.Sprintf("NOT IN null=%v", withNull), NewNot(in), b, func(r []any) any {
			return !withNull && r[0] != nil && !listed[types.FormatDecimal(r[0].(types.Decimal128), 2)]
		})
	}
}
