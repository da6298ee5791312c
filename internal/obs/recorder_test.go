package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderRingWraparound(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.End(r.Begin(&QueryRecord{SQL: "q", Tenant: "t1", Status: "ok", Rows: int64(i)}))
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4 (ring capacity)", got)
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	recs := r.Records()
	if len(recs) != 4 {
		t.Fatalf("Records len = %d, want 4", len(recs))
	}
	// Eviction order: the oldest six records are gone; survivors are IDs
	// 7..10 in oldest-first order.
	for i, rec := range recs {
		wantID := int64(7 + i)
		if rec.ID != wantID {
			t.Errorf("Records[%d].ID = %d, want %d (oldest-first)", i, rec.ID, wantID)
		}
		if rec.Rows != wantID-1 {
			t.Errorf("Records[%d].Rows = %d, want %d", i, rec.Rows, wantID-1)
		}
	}
	// Lookup by ID: evicted IDs miss, retained IDs hit.
	if _, ok := r.Record(3); ok {
		t.Error("Record(3) found an evicted record")
	}
	if rec, ok := r.Record(9); !ok || rec.Rows != 8 {
		t.Errorf("Record(9) = %+v, %t; want Rows=8, true", rec, ok)
	}
}

func TestRecorderActiveRegistry(t *testing.T) {
	r := NewRecorder(8)
	rec1, rec2 := &QueryRecord{SQL: "one", Tenant: "t1"}, &QueryRecord{SQL: "two", Tenant: "t2"}
	a1, a2 := r.Begin(rec1), r.Begin(rec2)
	a2.SetPhase(PhaseRunning)
	a2.Progress(100, 4000)
	a2.Progress(50, 2000)

	act := r.Active()
	if len(act) != 2 {
		t.Fatalf("Active len = %d, want 2", len(act))
	}
	if act[0].ID != rec1.ID || act[1].ID != rec2.ID {
		t.Fatalf("Active order = [%d %d], want arrival order [%d %d]",
			act[0].ID, act[1].ID, rec1.ID, rec2.ID)
	}
	if act[0].Phase != PhaseQueued || act[1].Phase != PhaseRunning {
		t.Errorf("phases = %s, %s; want queued, running", act[0].Phase, act[1].Phase)
	}
	if act[1].Rows != 150 || act[1].Bytes != 6000 {
		t.Errorf("progress = rows %d bytes %d, want 150, 6000", act[1].Rows, act[1].Bytes)
	}

	rec1.Status = "ok"
	r.End(a1)
	if n := r.ActiveCount(); n != 1 {
		t.Fatalf("ActiveCount after End = %d, want 1", n)
	}
	rec2.Status, rec2.Error = "failed", "boom"
	r.End(a2)
	if n := r.ActiveCount(); n != 0 {
		t.Fatalf("ActiveCount = %d, want 0", n)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	a := r.Begin(&QueryRecord{SQL: "q", Tenant: "t1"})
	a.SetPhase(PhaseRunning)
	a.Progress(1, 2)
	r.End(a)
	if r.Len() != 0 || r.ActiveCount() != 0 || r.Total() != 0 || r.Cap() != 0 {
		t.Error("nil recorder must report zero everywhere")
	}
	if r.Records() != nil || r.Active() != nil {
		t.Error("nil recorder must return nil slices")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec := &QueryRecord{SQL: "q", Tenant: "t1"}
				a := r.Begin(rec)
				a.SetPhase(PhaseRunning)
				a.Progress(1, 10)
				// The session fills the record while Active reads it.
				rec.SQL, rec.Status, rec.Done = "q normalized", "ok", time.Now()
				r.End(a)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Records()
				r.Active()
				r.Len()
			}
		}()
	}
	wg.Wait()
	if got := r.Total(); got != 1600 {
		t.Fatalf("Total = %d, want 1600", got)
	}
}

func TestQueryRecordChromeTrace(t *testing.T) {
	base := time.Now()
	rec := QueryRecord{
		ID: 7, SQL: "SELECT 1", Status: "ok", Cached: true,
		Submit:   base,
		Admitted: base.Add(1 * time.Millisecond),
		Planned:  base.Add(3 * time.Millisecond),
		Done:     base.Add(10 * time.Millisecond),
		Stages: []StageSummary{
			{ID: 0, Label: "gather", Tasks: 4, WallMicros: 6000, Rows: 42},
		},
	}
	out, err := rec.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev["name"].(string)] = true
	}
	for _, want := range []string{"query", "queued", "planning", "running", "stage 0"} {
		if !names[want] {
			t.Errorf("trace missing %q event (have %v)", want, names)
		}
	}
}

// TestQuantileAccuracy checks the histogram estimator against exact
// percentiles of a known distribution. Within a base-4 bucket the
// estimator interpolates linearly, so a uniform distribution (which is
// linear inside every bucket) must estimate within a few percent.
func TestQuantileAccuracy(t *testing.T) {
	const n = 200000
	rng := rand.New(rand.NewSource(7))
	h := &Histogram{}
	vals := make([]float64, n)
	for i := range vals {
		v := int64(rng.Intn(1 << 20)) // uniform over [0, 4^10)
		vals[i] = float64(v)
		h.Observe(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		exact := vals[int(q*float64(n))-1]
		est := h.Quantile(q)
		relErr := math.Abs(est-exact) / exact
		if relErr > 0.05 {
			t.Errorf("q=%g: est %.0f vs exact %.0f (rel err %.3f > 0.05)", q, est, exact, relErr)
		}
	}
	// Degenerate cases.
	if got := (&Histogram{}).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram quantile = %v, want 0", got)
	}
	one := &Histogram{}
	one.Observe(100)
	if got := one.Quantile(0.5); got <= 0 || got > 256 {
		// 100 lands in bucket (64, 256]; any estimate inside it is fine.
		t.Errorf("single-value quantile = %v, want in (0, 256]", got)
	}
}

func TestQuantilesConsistentSnapshot(t *testing.T) {
	h := &Histogram{}
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	qs := h.Quantiles(0.5, 0.95, 0.99)
	if !(qs[0] <= qs[1] && qs[1] <= qs[2]) {
		t.Fatalf("quantiles not monotone: %v", qs)
	}
}

func TestRegistryExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c").Add(5)
	r.Gauge("g", "g").Set(-3)
	r.GaugeFunc("gf", "gf", func() int64 { return 9 })
	h := r.Histogram("h_micros", "h")
	for i := int64(0); i < 100; i++ {
		h.Observe(i * 10)
	}
	byName := map[string]MetricSnapshot{}
	for _, m := range r.Export() {
		byName[m.Name] = m
	}
	if m := byName["c_total"]; m.Kind != "counter" || m.Value != 5 {
		t.Errorf("c_total = %+v", m)
	}
	if m := byName["g"]; m.Kind != "gauge" || m.Value != -3 {
		t.Errorf("g = %+v", m)
	}
	if m := byName["gf"]; m.Value != 9 {
		t.Errorf("gf = %+v", m)
	}
	m := byName["h_micros"]
	if m.Kind != "histogram" || m.Count != 100 {
		t.Fatalf("h_micros = %+v", m)
	}
	if !(m.P50 > 0 && m.P50 <= m.P95 && m.P95 <= m.P99) {
		t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v", m.P50, m.P95, m.P99)
	}
}

// TestLabeledHistogramExposition locks the Prometheus rendering of labeled
// histograms: suffixes go before the label set and every series keeps its
// labels (a labeled and an unlabeled variant of one base name must not
// collide).
func TestLabeledHistogramExposition(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat_micros", "latency").Observe(3)
	r.Histogram(`lat_micros{status="ok"}`, "latency").Observe(700)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"lat_micros_sum 3\n",
		"lat_micros_count 1\n",
		`lat_micros_sum{status="ok"} 700` + "\n",
		`lat_micros_count{status="ok"} 1` + "\n",
		`lat_micros_bucket{le="+Inf"} 1` + "\n",
		`lat_micros_bucket{status="ok",le="+Inf"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `lat_micros{status="ok"}_sum`) {
		t.Error("suffix rendered after the label set")
	}
	if c := strings.Count(out, "# TYPE lat_micros histogram"); c != 1 {
		t.Errorf("TYPE header appears %d times, want 1", c)
	}
}
