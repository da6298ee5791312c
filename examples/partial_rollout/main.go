// Partial rollout: the paper's §3.5/§5.1 design point. A query plan
// converts to Photon bottom-up starting at the scans; the first operator
// Photon does not support switches execution back to the legacy row engine
// through an explicit column-to-row transition node, and everything above
// stays on the legacy engine. Results are identical either way — that is
// the §5.6 consistency contract that made incremental rollout safe.
package main

import (
	"fmt"
	"log"

	"photon"
)

func main() {
	schema := photon.NewSchema(
		photon.Col("region", photon.String),
		photon.Col("sales", photon.Int64),
	)
	rows := [][]any{
		{"east", int64(100)}, {"west", int64(250)}, {"east", int64(175)},
		{"north", int64(50)}, {"west", int64(300)}, {nil, int64(10)},
	}
	query := `
		SELECT region, count(*) orders, sum(sales) total
		FROM sales
		WHERE sales > 40
		GROUP BY region
		ORDER BY total DESC`

	// Fully vectorized plan.
	full := photon.NewSession()
	if err := full.RegisterRows("sales", schema, rows); err != nil {
		log.Fatal(err)
	}
	a, err := full.SQL(query)
	if err != nil {
		log.Fatal(err)
	}

	// Same query, but pretend Photon does not support aggregation yet:
	// the planner keeps scan+filter vectorized, inserts a transition node,
	// and runs the aggregation (and everything above) on the row engine.
	partial := photon.NewSession(photon.Config{
		PhotonUnsupported: []string{"aggregate"},
	})
	if err := partial.RegisterRows("sales", schema, rows); err != nil {
		log.Fatal(err)
	}
	b, err := partial.SQL(query)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("-- fully vectorized plan:")
	fmt.Print(a)
	fmt.Println("-- partial rollout (aggregate fell back to the row engine):")
	fmt.Print(b)

	if a.String() != b.String() {
		log.Fatal("results diverged — the rollout contract is broken")
	}
	fmt.Println("results identical: partial rollout is transparent to the query")
}
