package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAdd(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs", "requests")
	c.Inc()
	c.Add(2.5)
	c.Add(-1)         // ignored: counters are monotone
	c.Add(math.NaN()) // ignored
	if got := c.Value(); got != 3.5 {
		t.Errorf("Value = %g, want 3.5", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "queue depth")
	g.Set(4)
	g.SetMax(2) // no-op
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Errorf("Value = %g, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot(false)
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d samples", len(snap))
	}
	s := snap[0]
	// le=1 gets 0.5 and 1 (bounds are inclusive), le=2 gets 1.5, le=4
	// gets 3, +Inf gets 100.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Errorf("bucket %d = %d, want %d (buckets %v)", i, s.Buckets[i], w, s.Buckets)
		}
	}
	if s.Count != 5 || s.Sum != 106 {
		t.Errorf("count %d sum %g, want 5, 106", s.Count, s.Sum)
	}
}

func TestHistogramNaNObservation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1})
	h.Observe(math.NaN())
	h.Observe(0.5)
	s := r.Snapshot(false)[0]
	if s.Count != 2 {
		t.Errorf("count = %d, want 2 (NaN counted)", s.Count)
	}
	if s.Sum != 0.5 {
		t.Errorf("sum = %g, want 0.5 (NaN excluded from sum)", s.Sum)
	}
	if s.Buckets[len(s.Buckets)-1] != 1 {
		t.Errorf("NaN not in overflow bucket: %v", s.Buckets)
	}
}

func TestGetOrCreateReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "h")
	b := r.Counter("c", "h")
	if a != b {
		t.Error("same series produced distinct counters")
	}
	// Distinct labels are distinct series.
	l1 := r.Counter("c", "h", WithLabels(Label{"k", "v1"}))
	l2 := r.Counter("c", "h", WithLabels(Label{"k", "v2"}))
	if l1 == l2 || l1 == a {
		t.Error("labeled series not distinct")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("no panic on kind mismatch")
		}
	}()
	r.Gauge("x", "")
}

func TestSnapshotSortedAndVolatileFiltered(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz", "last").Inc()
	r.Gauge("aa", "first").Set(1)
	r.Counter("mm", "wall clock", Volatile()).Inc()
	r.Counter("bb", "labeled", WithLabels(Label{"x", "2"})).Inc()
	r.Counter("bb", "labeled", WithLabels(Label{"x", "1"})).Inc()

	det := r.Snapshot(false)
	var ids []string
	for _, s := range det {
		ids = append(ids, s.Name+labelBlock(s.Labels))
	}
	want := []string{`aa`, `bb{x="1"}`, `bb{x="2"}`, `zz`}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("ids[%d] = %q, want %q", i, ids[i], want[i])
		}
	}
	all := r.Snapshot(true)
	if len(all) != 5 {
		t.Errorf("Snapshot(true) has %d samples, want 5", len(all))
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "", WithLabels(Label{"b", "2"}, Label{"a", "1"}))
	b := r.Counter("c", "", WithLabels(Label{"a", "1"}, Label{"b", "2"}))
	if a != b {
		t.Error("label order changed series identity")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{10, 100})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.SetMax(float64(w*1000 + i))
				h.Observe(float64(i % 200))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %g, want 8000", c.Value())
	}
	if g.Value() != 7999 {
		t.Errorf("gauge max = %g, want 7999", g.Value())
	}
	s := r.Snapshot(false)
	for _, sm := range s {
		if sm.Name == "h" && sm.Count != 8000 {
			t.Errorf("histogram count = %d, want 8000", sm.Count)
		}
	}
}

func TestUpdatePathDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 2, 4, 8})
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(3)
		g.SetMax(5)
		h.Observe(3)
	})
	if allocs != 0 {
		t.Errorf("update path allocates %.1f per op, want 0", allocs)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	c.Add(1)
	snap := r.Snapshot(false)
	c.Add(41)
	if snap[0].Value != 1 {
		t.Errorf("snapshot mutated by later update: %g", snap[0].Value)
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"good_name":   "good_name",
		"with:colons": "with:colons",
		"bad-dash":    "bad_dash",
		"0starts":     "__starts",
		"":            "_",
		"sp ace":      "sp_ace",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:            "0",
		1.5:          "1.5",
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		1e21:         "1e+21",
	}
	for in, want := range cases {
		if got := FormatValue(in); got != want {
			t.Errorf("FormatValue(%g) = %q, want %q", in, got, want)
		}
	}
	if got := FormatValue(math.NaN()); got != "NaN" {
		t.Errorf("FormatValue(NaN) = %q", got)
	}
}

func TestOpenMetricsOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("req", "total requests").Add(3)
	r.Gauge("inf_gauge", "can be infinite").Set(math.Inf(1))
	h := r.Histogram("lat", "latency", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	r.Counter("lbl", "with labels", WithLabels(Label{"comp", `a"b\c` + "\n"})).Inc()

	var b strings.Builder
	if err := WriteOpenMetrics(&b, r.Snapshot(false)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE req counter",
		"req_total 3",
		"inf_gauge +Inf",
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="2"} 2`,
		`lat_bucket{le="+Inf"} 3`,
		"lat_sum 11",
		"lat_count 3",
		`lbl_total{comp="a\"b\\c\n"} 1`,
		"# EOF\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Error("output does not end with # EOF")
	}
}

func TestJSONOutputParsesAndIsDeterministic(t *testing.T) {
	mk := func() string {
		r := NewRegistry()
		r.Counter("b", "second").Add(2)
		r.Counter("a", "first").Add(1)
		h := r.Histogram("h", "", []float64{1})
		h.Observe(0.5)
		r.Gauge("inf", "").Set(math.Inf(-1))
		var b strings.Builder
		if err := WriteJSON(&b, r.Snapshot(false)); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	one, two := mk(), mk()
	if one != two {
		t.Error("JSON export not byte-identical across identical registries")
	}
	var doc map[string]interface{}
	if err := json.Unmarshal([]byte(one), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, one)
	}
	// -Inf must be a quoted string, not an invalid bare token.
	if !strings.Contains(one, `"-Inf"`) {
		t.Errorf("-Inf not quoted:\n%s", one)
	}
	if strings.Index(one, `"name": "a"`) > strings.Index(one, `"name": "b"`) {
		t.Errorf("series not sorted:\n%s", one)
	}
}
