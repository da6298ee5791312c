package main

import (
	"fmt"
	"io"
	"math"
)

// bound is how far an end-to-end metric may worsen, as a share of the
// reference value, before a change counts as a regression. The bounds are
// what this sandbox's run-to-run spread allows (README.md records the
// spread beside each): its cores switch between two speeds a quarter apart
// for tens of seconds at a time, so every time-based metric of a 20 s
// window spreads by 2-12 % and carries the widest bound the benchmark
// contract permits. The first gated metrics are defined on every workload and
// are the ones BENCHMARK.json lists (a test keeps the two equal); the rest
// exist on some workloads only, can be 0, or jump between query classes.
type bound struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	frac   float64
}

// gated is how many leading entries of bounds BENCHMARK.json gates.
const gated = 7

var bounds = []bound{
	{"setup_s", "s", "lower", 0.25},
	{"sum_ms", "ms", "lower", 0.25},
	{"geomean_ms", "ms", "lower", 0.25},
	{"qps", "op/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p95_ms", "ms", "lower", 0.25},
	{"ingest_rows_per_s", "row/s", "higher", 0.25},
	{"stored_bytes_per_row", "B", "lower", 0.01},
	{"failed_frac", "ratio", "lower", 0}, // any increase
}

// worsening is how much worse b is than a in the metric's direction, as a
// share of a (negative when b is better).
func (bd bound) worsening(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	if bd.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// agree compares successive rounds of the same code: for every workload ×
// end-to-end metric it prints the relative difference between the rounds
// beside the metric's bound, and reports whether every pair stayed within
// it. Two runs of one program that disagree by more than a bound mean the
// bound cannot be trusted to detect a regression.
func agree(w io.Writer, rounds [][]*report) bool {
	ok := true
	for r := 1; r < len(rounds); r++ {
		for i, rep := range rounds[r] {
			prev := rounds[r-1][i]
			for _, bd := range bounds {
				a, okA := prev.Metrics[bd.name]
				b, okB := rep.Metrics[bd.name]
				if !okA || !okB {
					continue
				}
				// Either round may be the worse one.
				diff := math.Max(bd.worsening(a.Value, b.Value), bd.worsening(b.Value, a.Value))
				verdict := "within"
				if diff > bd.frac {
					verdict, ok = "EXCEEDS", false
				}
				fmt.Fprintf(w, "agree %s %s round%d=%.6g round%d=%.6g diff=%.2f%% bound=%.0f%% %s\n",
					rep.Name, bd.name, r-1, a.Value, r, b.Value, 100*diff, 100*bd.frac, verdict)
			}
		}
	}
	return ok
}
