// Command photon-sql is an interactive SQL shell (and one-shot runner) over
// the Photon engine. It loads the TPC-H sample catalog by default, or opens
// Delta tables from disk.
//
// Usage:
//
//	photon-sql                                # REPL over TPC-H SF 0.01
//	photon-sql -sf 0.1                        # bigger sample data
//	photon-sql -delta name=path [...]         # register Delta tables
//	photon-sql -engine dbr -q 'SELECT ...'    # one-shot on the baseline
//	photon-sql -q 'EXPLAIN SELECT ...'
//	photon-sql -par 4 -analyze -q 'SELECT..'  # merged EXPLAIN ANALYZE
//	photon-sql -trace q.json -q 'SELECT ...'  # Chrome/Perfetto trace
//	photon-sql -metrics -q 'SELECT ...'       # Prometheus dump on exit
//	photon-sql -par 4 -chaos-seed 42 -q '..'  # seeded chaos run (fault injection)
//	photon-sql -http :8218                    # live debug surface: /metrics,
//	                                          # /debug/queries, /debug/pprof
//	photon-sql -slow-query 100ms              # structured slow-query log
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"photon"
	"photon/internal/catalog"
	"photon/internal/fault"
	"photon/internal/tpch"
)

var (
	sfFlag      = flag.Float64("sf", 0.01, "TPC-H scale factor for the sample catalog")
	engineFlag  = flag.String("engine", "photon", "engine: photon | dbr | dbr-interpreted")
	queryFlag   = flag.String("q", "", "run one query and exit")
	parFlag     = flag.Int("par", 1, "parallelism (distributed aggregation when > 1)")
	noTPCH      = flag.Bool("no-sample", false, "skip loading the TPC-H sample catalog")
	analyzeFlag = flag.Bool("analyze", false, "print the merged EXPLAIN ANALYZE profile after each query")
	traceFlag   = flag.String("trace", "", "write a Chrome trace-event JSON file per query (load in chrome://tracing or ui.perfetto.dev)")
	metricsFlag = flag.Bool("metrics", false, "dump the session's Prometheus metrics on exit")
	chaosFlag   = flag.Int64("chaos-seed", 0, "arm deterministic fault injection on the distributed execution sites with this seed; pair with -par > 1 (0 = off)")
	cacheFlag   = flag.Bool("plan-cache", true, "cache compiled plans per normalized query shape (prepare/bind/execute lifecycle)")
	repeatFlag  = flag.Int("repeat", 1, "run each query N times, reporting per-run latency and cache/fast-path routing (pair with -plan-cache)")
	httpFlag    = flag.String("http", "", "serve the debug surface on this address (e.g. :8218): /metrics, /debug/queries, /debug/queries/<id>/trace, /debug/pprof")
	slowFlag    = flag.Duration("slow-query", 0, "log a structured slow-query line for queries at or above this wall time (0 = off)")
	historyFlag = flag.Int("query-history", 0, "flight-recorder ring size (0 = default 1024, negative = off); query via SELECT * FROM photon_queries")
	tenantFlag  = flag.String("tenant", "", "run queries as this tenant (weighted-fair scheduling; see photon_tenants)")
	weightsFlag = flag.String("tenant-weights", "", "per-tenant fair-share weights as name=w,name=w (e.g. gold=3,bronze=1)")
)

type deltaList []string

func (d *deltaList) String() string     { return strings.Join(*d, ",") }
func (d *deltaList) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	var deltas deltaList
	flag.Var(&deltas, "delta", "register a Delta table as name=path (repeatable)")
	flag.Parse()

	cfg := photon.Config{Parallelism: *parFlag}
	if !*cacheFlag {
		cfg.PlanCacheSize = -1
	}
	cfg.SlowQueryThreshold = *slowFlag
	cfg.QueryHistorySize = *historyFlag
	cfg.Tenant = *tenantFlag
	if *weightsFlag != "" {
		cfg.Tenants = map[string]photon.TenantConfig{}
		for _, spec := range strings.Split(*weightsFlag, ",") {
			name, ws, ok := strings.Cut(strings.TrimSpace(spec), "=")
			var w int
			if ok {
				_, err := fmt.Sscanf(ws, "%d", &w)
				ok = err == nil && w > 0 && name != ""
			}
			if !ok {
				fmt.Fprintf(os.Stderr, "bad -tenant-weights entry %q (want name=weight)\n", spec)
				os.Exit(2)
			}
			cfg.Tenants[name] = photon.TenantConfig{Weight: w}
		}
	}
	if *chaosFlag != 0 {
		// Extra retry headroom: chaos policies inject transient failures
		// into shuffle, broadcast, and task-start paths; the scheduler
		// must absorb them without surfacing errors.
		cfg.TaskMaxAttempts = 8
	}
	switch *engineFlag {
	case "photon":
		cfg.Engine = photon.EnginePhoton
	case "dbr":
		cfg.Engine = photon.EngineDBR
	case "dbr-interpreted":
		cfg.Engine = photon.EngineDBRInterpreted
	default:
		fmt.Fprintf(os.Stderr, "unknown engine %q\n", *engineFlag)
		os.Exit(2)
	}
	sess := photon.NewSession(cfg)

	if *chaosFlag != 0 {
		r := fault.NewRegistry(*chaosFlag)
		r.Arm(fault.ShuffleWrite, fault.Policy{Prob: 0.003})
		r.Arm(fault.ShuffleRead, fault.Policy{Prob: 0.003})
		r.Arm(fault.BroadcastFetch, fault.Policy{Prob: 0.003})
		r.Arm(fault.TaskStart, fault.Policy{
			Prob:        0.01,
			Latency:     3 * time.Millisecond,
			LatencyProb: 0.02,
		})
		r.Instrument(sess.Metrics())
		fault.Activate(r)
		fmt.Fprintf(os.Stderr, "chaos: fault injection armed, seed=%d (see photon_failpoint_fires_total with -metrics)\n", *chaosFlag)
	}

	if !*noTPCH {
		fmt.Fprintf(os.Stderr, "loading TPC-H sample catalog (SF=%g)...\n", *sfFlag)
		cat := tpch.NewGen(*sfFlag).Generate()
		for _, name := range cat.Names() {
			t, _ := cat.Lookup(name)
			mt := t.(*catalog.MemTable)
			sess.RegisterBatches(name, mt.Sch, mt.Batches)
		}
	}
	for _, spec := range deltas {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "bad -delta %q (want name=path)\n", spec)
			os.Exit(2)
		}
		if _, err := sess.OpenDeltaTable(name, path); err != nil {
			fmt.Fprintf(os.Stderr, "open delta %s: %v\n", spec, err)
			os.Exit(1)
		}
	}

	if *metricsFlag {
		defer sess.Metrics().WritePrometheus(os.Stderr)
	}

	if *httpFlag != "" {
		ln, err := net.Listen("tcp", *httpFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "debug http: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug http on %s (/metrics /debug/queries /debug/pprof)\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, sess.DebugHandler()); err != nil {
				fmt.Fprintf(os.Stderr, "debug http: %v\n", err)
			}
		}()
	}

	if *queryFlag != "" {
		if err := runOne(sess, *queryFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Fprintf(os.Stderr, "photon-sql (engine=%s). Tables: %s\n", *engineFlag, strings.Join(sess.Tables(), ", "))
	fmt.Fprintln(os.Stderr, `End statements with ';'. Commands: \q quit, EXPLAIN <query>.`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Fprint(os.Stderr, "photon> ")
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == `\q` {
			return
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			q := strings.TrimSuffix(strings.TrimSpace(buf.String()), ";")
			buf.Reset()
			if q != "" {
				if err := runOne(sess, q); err != nil {
					fmt.Fprintln(os.Stderr, "error:", err)
				}
			}
		}
		fmt.Fprint(os.Stderr, "photon> ")
	}
}

func runOne(sess *photon.Session, q string) error {
	if rest, ok := strings.CutPrefix(strings.TrimSpace(q), "EXPLAIN "); ok {
		out, err := sess.Explain(rest)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}
	start := time.Now()
	if *analyzeFlag || *traceFlag != "" {
		return runProfiled(sess, q, start)
	}
	if *repeatFlag > 1 {
		return runRepeated(sess, q)
	}
	res, err := sess.SQL(q)
	if err != nil {
		return err
	}
	fmt.Print(res)
	fmt.Fprintf(os.Stderr, "(%d rows in %s)\n", len(res.Rows), time.Since(start).Round(time.Millisecond))
	return nil
}

// runRepeated executes q -repeat times through the full lifecycle,
// printing the result once and a per-run latency/routing line each time —
// the quickest way to see the plan cache warm up (run 1 compiles, run 2+
// bind a cached plan).
func runRepeated(sess *photon.Session, q string) error {
	var res *photon.Result
	for i := 1; i <= *repeatFlag; i++ {
		start := time.Now()
		r, stats, err := sess.SQLContextStats(nil, q)
		if err != nil {
			return err
		}
		res = r
		fmt.Fprintf(os.Stderr, "run %d: %s (cached=%t fastpath=%t planning=%s)\n",
			i, time.Since(start).Round(time.Microsecond), stats.Cached, stats.FastPath, stats.Planning.Round(time.Microsecond))
	}
	fmt.Print(res)
	fmt.Fprintf(os.Stderr, "(%d rows, %d runs)\n", len(res.Rows), *repeatFlag)
	return nil
}

// traceSeq numbers per-query trace files within a shell session.
var traceSeq int

// runProfiled executes q with profiling enabled, printing the merged
// EXPLAIN ANALYZE tree (-analyze) and/or writing a Chrome trace (-trace).
func runProfiled(sess *photon.Session, q string, start time.Time) error {
	p, err := sess.SQLWithProfile(q)
	if err != nil {
		return err
	}
	fmt.Print(p.Result)
	fmt.Fprintf(os.Stderr, "(%d rows in %s)\n", len(p.Result.Rows), time.Since(start).Round(time.Millisecond))
	if *analyzeFlag {
		fmt.Fprintln(os.Stderr, "-- EXPLAIN ANALYZE --")
		fmt.Fprint(os.Stderr, p.Operators)
		if !strings.HasSuffix(p.Operators, "\n") {
			fmt.Fprintln(os.Stderr)
		}
		fmt.Fprintln(os.Stderr, p.Lifecycle)
	}
	if *traceFlag != "" {
		js, err := p.TraceJSON()
		if err != nil {
			return err
		}
		path := *traceFlag
		if traceSeq > 0 {
			path = fmt.Sprintf("%s.%d", path, traceSeq)
		}
		traceSeq++
		if err := os.WriteFile(path, js, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (%d events)\n", path, p.Trace.Len())
	}
	return nil
}
