// Command bench is the repository's one benchmark: four named workloads,
// the end-to-end metrics a user of the engine would see (tracing off), and
// a separate traced run that splits the time across the engine's layers.
// See README.md in this directory for every workload, metric and layer.
//
//	go run ./bench                          # all four workloads, end to end
//	go run ./bench -trace 1                 # then per-layer metrics and trace files
//	go run ./bench -workload tpch_mem       # one workload; last line is its JSON result
//	go run ./bench -repeat 2                # self-agreement check against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"photon"
	"photon/internal/obs"
)

// workload is one of the four benchmark workloads.
type workload interface {
	name() string
	classes() []string
	config() map[string]any
	// setUp generates the inputs from the seed, installs them in a fresh
	// session and warms it. The whole call is timed as setup_s. Calling it
	// again discards the previous state and starts over.
	setUp() error
	// measure drives the closed loop for about d (whole passes or epochs
	// where ops are not interchangeable), recording every op.
	measure(d time.Duration, rec *recorder)
	// extra adds the end-to-end metrics only this workload defines.
	extra(m map[string]metric) error
	// reportsTail says whether lat_p95_ms is defined on this workload.
	reportsTail() bool
	// session is the measured session, for the traced run's counter reads.
	session() *photon.Session
	// layers runs the traced pass after the untraced window: spans into tr,
	// per-layer metrics out. before and after are the session's exported
	// metrics around that window.
	layers(tr *tracer, before, after []obs.MetricSnapshot, untraced *recorder) (layerSet, map[string]*classTrace, error)
	close()
}

var workloadNames = []string{"tpch_lake", "tpch_mem", "serving_mix", "ingest_readback"}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	repeat   int
	regen    bool
	outDir   string
	report   string
}

// setupRepeats is how many times a run sets up; setup_s is their median,
// and the last set-up is the one measured on.
const setupRepeats = 3

func parallelism() int { return min(runtime.NumCPU(), runtime.GOMAXPROCS(0)) }

// newWorkload builds a workload at full or smoke size.
func newWorkload(name string, o *options, dataDir string) (workload, error) {
	sf, cycles, servSF, warmUp := 0.1, ingestCycles, servingSF, servingWarmUp
	if o.smoke {
		sf, cycles, servSF, warmUp = 0.005, 2, 0.005, 200*time.Millisecond
	}
	par := parallelism()
	switch name {
	case "tpch_lake", "tpch_mem":
		return &tpchWorkload{lake: name == "tpch_lake", sf: sf, par: par, seed: o.seed,
			dataDir: dataDir, keepMem: o.trace != 0}, nil
	case "serving_mix":
		return &servingWorkload{par: par, seed: o.seed, sf: servSF, warmUp: warmUp}, nil
	case "ingest_readback":
		return &ingestWorkload{par: par, seed: o.seed, dataDir: dataDir, cycles: cycles}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// runWorkload sets up, measures the untraced window and, when asked, runs
// the traced pass. It returns the workload's report.
func runWorkload(name string, o *options) (*report, error) {
	dataDir := filepath.Join(o.outDir, "data", fmt.Sprintf("%s-%d", name, os.Getpid()))
	w, err := newWorkload(name, o, dataDir)
	if err != nil {
		return nil, err
	}
	defer w.close()

	window := time.Duration(o.seconds * float64(time.Second))
	repeats := setupRepeats
	if o.smoke || o.trace != 0 {
		repeats = 1 // a traced run reports no setup_s
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if err := w.setUp(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep := &report{Name: name, Config: w.config()}
	rec := newRecorder(w.classes())
	rec.tail = w.reportsTail()
	if o.trace != 0 {
		// The traced run spends a third of its window on the untraced
		// reference the tracing overhead is measured against.
		window /= 3
	}
	resetPeakRSS()
	before := w.session().Metrics().Export()
	w.measure(window, rec)
	after := w.session().Metrics().Export()
	rep.Metrics, rep.Classes = rec.endToEnd(median(setups))
	if err := w.extra(rep.Metrics); err != nil {
		return nil, err
	}
	rep.Ops, rep.Failed, rep.Errors = rec.attempted(), rec.failed, rec.errs

	if o.trace != 0 {
		tr := newTracer()
		layers, classes, err := w.layers(tr, before, after, rec)
		if err != nil {
			return nil, fmt.Errorf("%s traced run: %w", name, err)
		}
		rep.Layers = layers
		// The one end-to-end count the driver cannot gate (it is undefined on
		// the in-memory workloads) is repeated per layer, 0 where undefined.
		layers.set("delta.stored_bytes_per_row", rep.Metrics["stored_bytes_per_row"].Value)
		for c, ct := range classes {
			cr := rep.Classes[c]
			cr.Trace = ct
			rep.Classes[c] = cr
		}
		rep.TraceFile = filepath.Join(o.outDir, "trace_"+name+".json")
		if err := tr.writeChrome(rep.TraceFile); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// result is the schema of out/result.json.
type result struct {
	GitRev     string    `json:"git_rev"`
	GoVersion  string    `json:"go_version"`
	NProc      int       `json:"nproc"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	Workloads  []*report `json:"workloads"`
}

// gitRev asks git for the checked-out commit; a checkout without git (the
// benchmark driver's) reports "unknown".
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport writes "workload metric value unit" lines: end-to-end
// metrics, per-class medians, then per-layer metrics.
func printReport(w io.Writer, rep *report) {
	line := func(name string, m metric) { fmt.Fprintf(w, "%s %s %.6g %s\n", rep.Name, name, m.Value, m.Unit) }
	for _, name := range slices.Sorted(maps.Keys(rep.Metrics)) {
		line(name, rep.Metrics[name])
	}
	fmt.Fprintf(w, "%s ops %d count\n", rep.Name, rep.Ops)
	for _, c := range slices.Sorted(maps.Keys(rep.Classes)) {
		line("class."+c+".median_ms", metric{rep.Classes[c].MedianMs, "ms"})
		if ct := rep.Classes[c].Trace; ct != nil {
			line("class."+c+".stages", metric{float64(ct.Stages), "count"})
			line("class."+c+".shuffle_bytes", metric{float64(ct.ShuffleBytes), "B"})
		}
	}
	for _, name := range slices.Sorted(maps.Keys(rep.Layers)) {
		line(name, rep.Layers[name])
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "%s FAILED %s\n", rep.Name, e)
	}
}

// driverLine is the one-line result the benchmark driver reads: the
// end-to-end metrics BENCHMARK.json lists with tracing off, the per-layer
// metrics with tracing on.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (rep *report) driverLine(trace bool) driverLine {
	d := driverLine{Correct: rep.Failed == 0, Attempted: rep.Ops, Failed: rep.Failed, Metrics: map[string]metric{}}
	if trace {
		d.Metrics = rep.Layers
		return d
	}
	for _, bd := range bounds[:gated] {
		d.Metrics[bd.name] = rep.Metrics[bd.name]
	}
	return d
}

// runAll runs each named workload in its own subprocess (so one workload's
// peak RSS and heap do not bleed into the next) and collects the reports.
func runAll(names []string, o *options) ([]*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var reports []*report
	for _, name := range names {
		path := filepath.Join(o.outDir, fmt.Sprintf("report_%s_%d.json", name, os.Getpid()))
		args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(o.trace), "-out", o.outDir, "-report", path}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		data, err := os.ReadFile(path)
		os.Remove(path)
		if err != nil {
			return nil, fmt.Errorf("workload %s produced no report: %w", name, errors.Join(runErr, err))
		}
		rep := &report{}
		if err := json.Unmarshal(data, rep); err != nil {
			return nil, fmt.Errorf("workload %s report: %w", name, err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

func main() {
	o := &options{}
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for pass order, class draws, lookup keys and generated rows")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured window per workload, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = also run the traced pass and report per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny inputs (SF 0.005), for the tests")
	flag.IntVar(&o.repeat, "repeat", 1, "run the whole set this many times, alternating workload order, and compare the runs against the bounds")
	flag.BoolVar(&o.regen, "regen-golden", false, "recompute golden/ digests with the interpreted row engine and exit")
	flag.StringVar(&o.outDir, "out", filepath.Join(benchDir(), "out"), "directory for result.json, trace files and scratch data")
	flag.StringVar(&o.report, "report", "", "write this workload's full report here (used by the parent of a multi-workload run)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// benchDir is the benchmark's own directory: bench/ when run from the
// repository root (go run ./bench), the current directory from inside it.
func benchDir() string {
	if _, err := os.Stat("bench/golden"); err == nil {
		return "bench"
	}
	return "."
}

var errFailedChecks = errors.New("some checks failed")

func run(o *options) error {
	if o.regen {
		return regenGolden()
	}
	if o.seconds <= 0 || math.IsNaN(o.seconds) {
		return fmt.Errorf("-seconds must be positive")
	}
	abs, err := filepath.Abs(o.outDir)
	if err != nil {
		return err
	}
	o.outDir = abs
	// The engine puts per-query shuffle and spill directories under the
	// system temp dir; keep them inside the benchmark's own directory.
	tmpDir := filepath.Join(o.outDir, "tmp")
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return err
	}
	os.Setenv("TMPDIR", tmpDir)

	// One named workload runs in this process; its last stdout line is the
	// driver's JSON object.
	if o.workload != "all" {
		rep, err := runWorkload(o.workload, o)
		if err != nil {
			return err
		}
		if o.report != "" {
			return writeJSON(o.report, rep)
		}
		printReport(os.Stdout, rep)
		if err := writeResult(o, []*report{rep}); err != nil {
			return err
		}
		line, err := json.Marshal(rep.driverLine(o.trace != 0))
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if rep.Failed > 0 {
			return errFailedChecks
		}
		return nil
	}

	var rounds [][]*report
	for r := 0; r < max(o.repeat, 1); r++ {
		names := slices.Clone(workloadNames)
		if r%2 == 1 { // alternate the order so drift does not favour one round
			slices.Reverse(names)
		}
		reports, err := runAll(names, o)
		if err != nil {
			return err
		}
		if r%2 == 1 {
			slices.Reverse(reports)
		}
		for _, rep := range reports {
			printReport(os.Stdout, rep)
		}
		rounds = append(rounds, reports)
	}
	if err := writeResult(o, rounds[len(rounds)-1]); err != nil {
		return err
	}
	failed := false
	for _, reports := range rounds {
		for _, rep := range reports {
			failed = failed || rep.Failed > 0
		}
	}
	if len(rounds) > 1 && !agree(os.Stdout, rounds) {
		failed = true
	}
	if failed {
		return errFailedChecks
	}
	return nil
}

func writeResult(o *options, reports []*report) error {
	return writeJSON(filepath.Join(o.outDir, "result.json"), result{
		GitRev: gitRev(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Seed: o.seed, Workloads: reports,
	})
}
