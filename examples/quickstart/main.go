// Quickstart: register an in-memory table, run SQL on the vectorized
// engine, and read the results.
package main

import (
	"fmt"
	"log"

	"photon"
)

func main() {
	sess := photon.NewSession()

	schema := photon.NewSchema(
		photon.Col("city", photon.String),
		photon.Col("temp_c", photon.Float64),
		photon.Col("day", photon.Date),
	)
	day := func(s string) int32 {
		d, err := photon.ParseDate(s)
		if err != nil {
			log.Fatal(err)
		}
		return d
	}
	if err := sess.RegisterRows("weather", schema, [][]any{
		{"Philadelphia", 21.5, day("2022-06-12")},
		{"Philadelphia", 24.0, day("2022-06-13")},
		{"Amsterdam", 17.0, day("2022-06-12")},
		{"Amsterdam", nil, day("2022-06-13")}, // sensors drop readings
		{"Tokyo", 26.5, day("2022-06-12")},
	}); err != nil {
		log.Fatal(err)
	}

	res, err := sess.SQL(`
		SELECT city, count(temp_c) readings, avg(temp_c) avg_temp
		FROM weather
		WHERE day >= DATE '2022-06-12'
		GROUP BY city
		ORDER BY city`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)

	// The same query, on the baseline row engine the paper compares
	// against — results are identical by construction (§5.6).
	baseline := photon.NewSession(photon.Config{Engine: photon.EngineDBR})
	if err := baseline.RegisterRows("weather", schema, [][]any{
		{"Tokyo", 26.5, day("2022-06-12")},
	}); err != nil {
		log.Fatal(err)
	}
	res2, err := baseline.SQL("SELECT upper(city) FROM weather")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res2)
}
