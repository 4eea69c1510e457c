package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: dxbsp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTableT1       	   54915	     20408 ns/op	    6320 B/op	     232 allocs/op
BenchmarkTableT1       	   60510	     19592 ns/op	    6320 B/op	     232 allocs/op
BenchmarkTableT1       	   59742	     19621 ns/op	    6320 B/op	     232 allocs/op
BenchmarkSimScatter64K-8 	      13	  85576734 ns/op	42548208 B/op	  538956 allocs/op
BenchmarkAblationSimVsModel 	     100	   1000000 ns/op	         1.002 sim/model
PASS
ok  	dxbsp	12.529s
`

func runTool(t *testing.T, stdin string, args ...string) (string, string, int) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return out.String(), errb.String(), code
}

func TestConvert(t *testing.T) {
	out, errOut, code := runTool(t, sampleBench)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var f File
	if err := json.Unmarshal([]byte(out), &f); err != nil {
		t.Fatal(err)
	}
	t1, ok := f.Benchmarks["TableT1"]
	if !ok {
		t.Fatalf("TableT1 missing: %v", f.Benchmarks)
	}
	if t1.Samples != 3 {
		t.Errorf("TableT1 samples = %d, want 3", t1.Samples)
	}
	if t1.NsPerOp != 19621 { // median of 20408, 19592, 19621
		t.Errorf("TableT1 ns/op = %v, want median 19621", t1.NsPerOp)
	}
	if t1.AllocsPerOp != 232 {
		t.Errorf("TableT1 allocs/op = %v", t1.AllocsPerOp)
	}
	// The -8 GOMAXPROCS suffix must be stripped.
	sc, ok := f.Benchmarks["SimScatter64K"]
	if !ok || sc.NsPerOp != 85576734 {
		t.Errorf("SimScatter64K = %+v, ok=%v", sc, ok)
	}
	// Custom metrics must not corrupt parsing, and are recorded by unit.
	ab, ok := f.Benchmarks["AblationSimVsModel"]
	if !ok || ab.NsPerOp != 1000000 {
		t.Errorf("AblationSimVsModel = %+v, ok=%v", ab, ok)
	}
	if ab.Metrics["sim/model"] != 1.002 {
		t.Errorf("custom metric not recorded: %+v", ab.Metrics)
	}
}

// Custom throughput metrics reduce to per-unit medians like the builtin
// counters.
func TestConvertMetricMedians(t *testing.T) {
	input := `BenchmarkBatchExpansion-8 	 5	 2000000 ns/op	 48000 points/sec	 3.8 xscalar
BenchmarkBatchExpansion-8 	 5	 2100000 ns/op	 50000 points/sec	 4.0 xscalar
BenchmarkBatchExpansion-8 	 5	 2200000 ns/op	 52500 points/sec	 4.1 xscalar
`
	out, errOut, code := runTool(t, input)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var f File
	if err := json.Unmarshal([]byte(out), &f); err != nil {
		t.Fatal(err)
	}
	be := f.Benchmarks["BatchExpansion"]
	if be.Metrics["points/sec"] != 50000 {
		t.Errorf("points/sec median = %v, want 50000", be.Metrics["points/sec"])
	}
	if be.Metrics["xscalar"] != 4.0 {
		t.Errorf("xscalar median = %v, want 4.0", be.Metrics["xscalar"])
	}
}

func TestConvertFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, code := runTool(t, "", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "TableT1") {
		t.Errorf("file input not parsed: %s", out)
	}
}

func writeJSON(t *testing.T, f File) string {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestComparePassAndFail(t *testing.T) {
	base := writeJSON(t, File{Benchmarks: map[string]Bench{
		"Fast": {NsPerOp: 1000, Samples: 1},
		"Slow": {NsPerOp: 1000, Samples: 1},
	}})

	ok := writeJSON(t, File{Benchmarks: map[string]Bench{
		"Fast": {NsPerOp: 1100, Samples: 1}, // +10% < 15%: fine
		"Slow": {NsPerOp: 900, Samples: 1},
	}})
	out, _, code := runTool(t, "", "-compare", base, ok)
	if code != 0 {
		t.Fatalf("within-threshold compare failed (%d):\n%s", code, out)
	}

	bad := writeJSON(t, File{Benchmarks: map[string]Bench{
		"Fast": {NsPerOp: 1200, Samples: 1}, // +20% > 15%: regression
		"Slow": {NsPerOp: 900, Samples: 1},
	}})
	out, errOut, code := runTool(t, "", "-compare", base, bad)
	if code != exitRegression {
		t.Fatalf("regression not detected (%d):\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(errOut, "slower than base") {
		t.Errorf("missing regression report:\n%s\n%s", out, errOut)
	}
}

// Throughput metrics (units ending in /sec) gate higher-is-better: a
// points/sec drop beyond the threshold is a regression even when ns/op
// is clean, and a rise never is. Non-throughput metrics (no /sec suffix)
// stay out of the gate.
func TestCompareThroughputMetrics(t *testing.T) {
	base := writeJSON(t, File{Benchmarks: map[string]Bench{
		"BatchExpansion": {NsPerOp: 1000, Samples: 1,
			Metrics: map[string]float64{"points/sec": 50000, "xscalar": 4.0}},
	}})

	ok := writeJSON(t, File{Benchmarks: map[string]Bench{
		"BatchExpansion": {NsPerOp: 1000, Samples: 1,
			Metrics: map[string]float64{"points/sec": 60000, "xscalar": 1.0}},
	}})
	out, _, code := runTool(t, "", "-compare", base, ok)
	if code != 0 {
		t.Fatalf("throughput gain flagged as regression (%d):\n%s", code, out)
	}
	if !strings.Contains(out, "BatchExpansion [points/sec]") {
		t.Errorf("metric delta row missing:\n%s", out)
	}

	bad := writeJSON(t, File{Benchmarks: map[string]Bench{
		"BatchExpansion": {NsPerOp: 1000, Samples: 1,
			Metrics: map[string]float64{"points/sec": 40000}}, // -20% < -15%
	}})
	out, errOut, code := runTool(t, "", "-compare", base, bad)
	if code != exitRegression {
		t.Fatalf("throughput regression not detected (%d):\n%s", code, out)
	}
	if !strings.Contains(out, "[points/sec]") || !strings.Contains(out, "REGRESSION") {
		t.Errorf("missing throughput regression report:\n%s\n%s", out, errOut)
	}
}

// A bench new in head (the base commit lacks it) has nothing to compare
// against: -compare reports and gates only the benches both sides ran.
func TestCompareHeadOnlyBench(t *testing.T) {
	base := writeJSON(t, File{Benchmarks: map[string]Bench{"Old": {NsPerOp: 1000, Samples: 1}}})
	head := writeJSON(t, File{Benchmarks: map[string]Bench{
		"Old": {NsPerOp: 1000, Samples: 1},
		"New": {NsPerOp: 1, Samples: 1, Metrics: map[string]float64{"requests/sec": 1}},
	}})
	out, errOut, code := runTool(t, "", "-compare", base, head)
	if code != 0 {
		t.Fatalf("head-only bench failed the compare (%d):\n%s\n%s", code, out, errOut)
	}
	if strings.Contains(out, "New") {
		t.Errorf("head-only bench reported:\n%s", out)
	}
}

func TestCompareThresholdFlag(t *testing.T) {
	base := writeJSON(t, File{Benchmarks: map[string]Bench{"B": {NsPerOp: 1000, Samples: 1}}})
	head := writeJSON(t, File{Benchmarks: map[string]Bench{"B": {NsPerOp: 1100, Samples: 1}}})
	if _, _, code := runTool(t, "", "-compare", "-threshold", "5", base, head); code != exitRegression {
		t.Errorf("+10%% passed a 5%% threshold (code %d)", code)
	}
	if _, _, code := runTool(t, "", "-compare", "-threshold", "25", base, head); code != 0 {
		t.Errorf("+10%% failed a 25%% threshold (code %d)", code)
	}
}

func TestCompareUsageErrors(t *testing.T) {
	base := writeJSON(t, File{Benchmarks: map[string]Bench{"A": {NsPerOp: 1, Samples: 1}}})
	other := writeJSON(t, File{Benchmarks: map[string]Bench{"B": {NsPerOp: 1, Samples: 1}}})
	if _, _, code := runTool(t, "", "-compare", base); code != exitUsage {
		t.Errorf("one-arg compare: code %d", code)
	}
	if _, _, code := runTool(t, "", "-compare", base, filepath.Join(t.TempDir(), "nope.json")); code != exitUsage {
		t.Errorf("missing file: code %d", code)
	}
	if _, errOut, code := runTool(t, "", "-compare", base, other); code != exitUsage || !strings.Contains(errOut, "no benchmarks in common") {
		t.Errorf("disjoint files: code %d err %q", code, errOut)
	}
}

func TestConvertEmptyInput(t *testing.T) {
	out, _, code := runTool(t, "PASS\nok  \tdxbsp\t1.0s\n")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var f File
	if err := json.Unmarshal([]byte(out), &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 0 {
		t.Errorf("benchmarks parsed from empty input: %v", f.Benchmarks)
	}
}

func readHistory(t *testing.T, path string) HistoryFile {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var h HistoryFile
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHistoryAppendAndReplace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_history.json")

	// First entry creates the file.
	out, errOut, code := runTool(t, sampleBench, "-history", path, "-commit", "aaa1111", "-date", "2026-08-01")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "appended to") {
		t.Errorf("first run output: %q", out)
	}
	h := readHistory(t, path)
	if len(h.Entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(h.Entries))
	}
	e := h.Entries[0]
	if e.Date != "2026-08-01" || e.Commit != "aaa1111" {
		t.Errorf("entry tags = %q %q", e.Date, e.Commit)
	}
	if e.Benchmarks["TableT1"].NsPerOp != 19621 {
		t.Errorf("entry medians not recorded: %+v", e.Benchmarks["TableT1"])
	}

	// A different commit appends.
	if _, _, code := runTool(t, sampleBench, "-history", path, "-commit", "bbb2222", "-date", "2026-08-02"); code != 0 {
		t.Fatalf("second append failed")
	}
	if h = readHistory(t, path); len(h.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(h.Entries))
	}

	// Re-running the same commit replaces its entry (idempotent CI retry).
	out, _, code = runTool(t, sampleBench, "-history", path, "-commit", "bbb2222", "-date", "2026-08-03")
	if code != 0 {
		t.Fatalf("replace failed")
	}
	if !strings.Contains(out, "replaced in") {
		t.Errorf("replace output: %q", out)
	}
	h = readHistory(t, path)
	if len(h.Entries) != 2 {
		t.Fatalf("entries after replace = %d, want 2", len(h.Entries))
	}
	if h.Entries[1].Date != "2026-08-03" {
		t.Errorf("replaced entry date = %q", h.Entries[1].Date)
	}
	if h.Entries[0].Commit != "aaa1111" {
		t.Errorf("earlier entry disturbed: %+v", h.Entries[0])
	}
}

func TestHistoryDefaultsAndErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.json")

	// Defaults: commit "unknown", date filled in (format only checked).
	if _, errOut, code := runTool(t, sampleBench, "-history", path); code != 0 {
		t.Fatalf("defaults run failed: %s", errOut)
	}
	h := readHistory(t, path)
	if h.Entries[0].Commit != "unknown" {
		t.Errorf("default commit = %q", h.Entries[0].Commit)
	}
	if len(h.Entries[0].Date) != len("2006-01-02") {
		t.Errorf("default date = %q", h.Entries[0].Date)
	}

	// Unknown commits never replace each other.
	if _, _, code := runTool(t, sampleBench, "-history", path); code != 0 {
		t.Fatal("second defaults run failed")
	}
	if h = readHistory(t, path); len(h.Entries) != 2 {
		t.Errorf("unknown-commit entries = %d, want 2 (must append, not replace)", len(h.Entries))
	}

	// Empty input is an error, not an empty entry.
	if _, errOut, code := runTool(t, "no benchmarks here", "-history", path); code == 0 {
		t.Error("empty input accepted")
	} else if !strings.Contains(errOut, "no benchmarks") {
		t.Errorf("error output: %q", errOut)
	}

	// Corrupt history is an error, not a restart.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := runTool(t, sampleBench, "-history", bad); code == 0 {
		t.Error("corrupt history accepted")
	}
}
