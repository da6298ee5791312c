// Lakehouse ETL: the raw, uncurated data scenario the paper's introduction
// motivates (§1). An ingest feed arrives as strings — numeric fields
// encoded as text, placeholder values like "N/A" instead of NULL, UUID
// identifiers as 36-character strings. The pipeline normalizes it with SQL
// (string-to-number casts produce NULL on junk, exactly Spark semantics),
// writes curated Delta tables with ACID commits, and queries them with
// statistics-based file skipping and time travel.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"photon"
)

func main() {
	dir, err := os.MkdirTemp("", "lakehouse-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	sess := photon.NewSession()

	// 1. Raw feed: everything is a string, with junk values mixed in.
	rawSchema := photon.NewSchema(
		photon.Col("event_id", photon.String), // UUID as text
		photon.Col("user_id", photon.String),  // number as text, sometimes "N/A"
		photon.Col("amount", photon.String),   // decimal as text, sometimes ""
		photon.Col("when_str", photon.String), // date as text
	)
	if err := sess.RegisterRows("raw_events", rawSchema, [][]any{
		{"9f86d081-8842-4a1b-9b67-0c55ad674b9a", "1001", "19.99", "2023-03-01"},
		{"6b86b273-ff34-4ce1-9d49-ffa0f3564a52", "1002", "5.00", "2023-03-01"},
		{"4e07408562bedb8b60ce05c1decfe3ad16b722", "N/A", "oops", "2023-03-02"}, // junk row
		{"d4735e3a-265e-46ee-8c6e-fc1b2b5f2cbb", "1001", "250.10", "2023-03-02"},
		{"ef2d127d-e37b-4b94-a723-eab6fca038b9", "1003", "", "not-a-date"},
	}); err != nil {
		log.Fatal(err)
	}

	// 2. Normalize: casts turn malformed text into NULL, CASE handles the
	//    placeholder conventions raw feeds use instead of NULL.
	res, err := sess.SQL(`
		SELECT event_id,
		       CAST(CASE WHEN user_id = 'N/A' THEN NULL ELSE user_id END AS BIGINT) user_id,
		       CAST(amount AS DECIMAL(12,2)) amount,
		       CAST(when_str AS DATE) AS day
		FROM raw_events`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- normalized feed (junk became NULL):")
	fmt.Print(res)

	// 3. Write the curated table as Delta: one ACID commit per batch.
	curated := photon.NewSchema(
		photon.Col("event_id", photon.String),
		photon.Col("user_id", photon.Int64),
		photon.Col("amount", photon.Decimal(12, 2)),
		photon.Col("day", photon.Date),
	)
	tbl, err := sess.CreateDeltaTable("events", filepath.Join(dir, "events"), curated)
	if err != nil {
		log.Fatal(err)
	}
	if err := tbl.AppendRows(res.Rows); err != nil {
		log.Fatal(err)
	}

	// A second day's load arrives later — another atomic commit.
	d, _ := photon.ParseDate("2023-03-03")
	amount, _ := photon.ParseDecimal("42.00", 2)
	if err := tbl.AppendRows([][]any{
		{"aaaaaaaa-bbbb-cccc-dddd-eeeeffff0000", int64(1004), amount, d},
	}); err != nil {
		log.Fatal(err)
	}

	// 4. Query the curated table. The date filter prunes files via Delta's
	//    min/max statistics before any data is read.
	res, err = sess.SQL(`
		SELECT user_id, count(*) events, sum(amount) total
		FROM events
		WHERE day >= DATE '2023-03-02' AND user_id IS NOT NULL
		GROUP BY user_id
		ORDER BY user_id`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- curated rollup (files pruned by date stats):")
	fmt.Print(res)

	// 5. Time travel: read the table as of the first commit.
	if err := tbl.AsOf(1); err != nil {
		log.Fatal(err)
	}
	res, err = sess.SQL("SELECT count(*) FROM events")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- row count as of version 1 (before the second load):")
	fmt.Print(res)
}
