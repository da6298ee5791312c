package main

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// classReport is the per-class diagnosis row (printed and stored, never
// gated).
type classReport struct {
	Ops      int     `json:"ops"`
	MedianMs float64 `json:"median_ms"`
	MaxMs    float64 `json:"max_ms"`
	// Trace is the class's share of the traced run's layer replay.
	Trace *classTrace `json:"trace,omitempty"`
}

// classTrace is what the layer replay saw of one class: how it was routed
// and what its last replayed op cost in each layer.
type classTrace struct {
	FastPath       bool    `json:"fast_path"`
	Stages         int     `json:"stages"`
	ShuffleBytes   int64   `json:"shuffle_bytes"`
	ResultRows     int     `json:"result_rows"`
	ParseUs        float64 `json:"parse_us"`
	NormalizeUs    float64 `json:"normalize_us"`
	CompileUs      float64 `json:"compile_us"` // first replay (a plan-cache miss)
	BindUs         float64 `json:"bind_us"`
	RunMs          float64 `json:"run_ms"`
	CriticalPathMs float64 `json:"critical_path_ms"`
}

// report is one workload's result: the end-to-end metrics of the untraced
// window and, from a traced run, the per-layer metrics.
type report struct {
	Name      string                 `json:"name"`
	Config    map[string]any         `json:"config"`
	Ops       int                    `json:"ops"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metric      `json:"metrics"`
	Classes   map[string]classReport `json:"classes"`
	Layers    map[string]metric      `json:"layers,omitempty"`
	Errors    []string               `json:"errors,omitempty"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

// sample is one completed op.
type sample struct {
	class int
	ns    int64
}

// recorder collects the ops of one measured window. Wall, CPU and
// allocation accrue only between begin and end, so result verification and
// input generation between those calls stay off every clock.
type recorder struct {
	classes []string
	// tail asks for lat_p95_ms: set by the workloads whose ops are alike
	// enough for a tail percentile to mean something (not the 22 TPC-H
	// classes, whose p95 is simply the slowest query).
	tail    bool
	samples []sample
	failed  int
	errs    []string
	// rows appended and wall spent inside append ops (ingest_readback).
	appendRows int64
	appendNs   int64

	wall  time.Duration
	cpu   time.Duration
	alloc uint64

	t0     time.Time
	cpu0   time.Duration
	alloc0 uint64
}

func newRecorder(classes []string) *recorder { return &recorder{classes: classes} }

func (r *recorder) begin() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.alloc0 = ms.TotalAlloc
	r.cpu0 = processCPU()
	r.t0 = time.Now()
}

func (r *recorder) end() {
	r.wall += time.Since(r.t0)
	r.cpu += processCPU() - r.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.alloc += ms.TotalAlloc - r.alloc0
}

// op records one attempted op of the given class and how long the caller
// waited for it, whether or not it succeeded.
func (r *recorder) op(class int, d time.Duration) {
	r.samples = append(r.samples, sample{class, int64(d)})
}

// fail marks an already recorded op as failed: it errored, was refused, or
// returned a wrong result.
func (r *recorder) fail(class int, err error) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", r.classes[class], err))
	}
}

// merge folds another client's samples in (multi-client workloads give
// each client its own recorder so the hot loop shares nothing).
func (r *recorder) merge(o *recorder) {
	r.samples = append(r.samples, o.samples...)
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < 8 {
			r.errs = append(r.errs, e)
		}
	}
}

// attempted counts every op issued.
func (r *recorder) attempted() int { return len(r.samples) }

// byClass returns each class's latencies in ms, by class index.
func (r *recorder) byClass() [][]float64 {
	out := make([][]float64, len(r.classes))
	for _, s := range r.samples {
		out[s.class] = append(out[s.class], float64(s.ns)/1e6)
	}
	return out
}

// endToEnd derives the end-to-end metrics and per-class rows from the
// window. Metrics undefined for the window (a tail percentile without
// enough samples beyond it) are omitted, never reported as 0.
func (r *recorder) endToEnd(setupSeconds float64) (map[string]metric, map[string]classReport) {
	m := map[string]metric{"setup_s": {setupSeconds, "s"}}
	classes := map[string]classReport{}
	var medians, all []float64
	for c, lat := range r.byClass() {
		if len(lat) == 0 {
			continue
		}
		med := median(lat)
		medians = append(medians, med)
		all = append(all, lat...)
		sort.Float64s(lat)
		classes[r.classes[c]] = classReport{Ops: len(lat), MedianMs: med, MaxMs: lat[len(lat)-1]}
	}
	ops := float64(len(all))
	if ops == 0 {
		return m, classes
	}
	var sum float64
	for _, x := range medians {
		sum += x
	}
	sort.Float64s(all)
	m["sum_ms"] = metric{sum, "ms"}
	m["geomean_ms"] = metric{geomean(medians), "ms"}
	m["lat_p50_ms"] = metric{median(all), "ms"}
	if p95, ok := percentile(all, 0.95); ok && r.tail {
		m["lat_p95_ms"] = metric{p95, "ms"}
	}
	m["qps"] = metric{ops / r.wall.Seconds(), "op/s"}
	m["cpu_ms_per_op"] = metric{float64(r.cpu) / 1e6 / ops, "ms"}
	m["alloc_mb_per_op"] = metric{float64(r.alloc) / (1 << 20) / ops, "MB"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	m["failed_frac"] = metric{float64(r.failed) / math.Max(float64(r.attempted()), 1), "ratio"}
	if r.appendNs > 0 {
		m["ingest_rows_per_s"] = metric{float64(r.appendRows) / (float64(r.appendNs) / 1e9), "row/s"}
	}
	return m, classes
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS returns set-up's garbage to the OS and restarts the VmHWM
// high-water mark, so peak_rss_mb reports the measured window and not the
// data generator. Best effort: where /proc/self/clear_refs is not writable
// the mark simply keeps covering set-up too.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
