package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"photon"
	"photon/internal/types"
)

// canonicalRows renders a result one line per row in a form every engine
// and execution configuration must agree on: NULL as "NULL", decimals at
// the column's declared scale, dates as YYYY-MM-DD, floats to nine
// significant digits (summation order differs between the row engine and
// parallel vectorized tasks), everything else with %v. Rows are sorted
// unless the query fixes their order itself.
func canonicalRows(res *photon.Result, ordered bool) []string {
	lines := make([]string, len(res.Rows))
	var sb strings.Builder
	for i, row := range res.Rows {
		sb.Reset()
		for c, v := range row {
			if c > 0 {
				sb.WriteByte('|')
			}
			t := res.Schema.Field(c).Type
			switch x := v.(type) {
			case nil:
				sb.WriteString("NULL")
			case types.Decimal128:
				sb.WriteString(types.FormatDecimal(x, t.Scale))
			case float64:
				fmt.Fprintf(&sb, "%.9g", x)
			case int32:
				if t.ID == types.Date {
					sb.WriteString(types.FormatDate(x))
				} else {
					fmt.Fprintf(&sb, "%d", x)
				}
			default:
				fmt.Fprintf(&sb, "%v", x)
			}
		}
		lines[i] = sb.String()
	}
	if !ordered {
		sort.Strings(lines)
	}
	return lines
}

// digest hashes a result's canonical rows.
func digest(res *photon.Result, ordered bool) string {
	h := sha256.New()
	for _, l := range canonicalRows(res, ordered) {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
