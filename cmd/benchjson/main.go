// Command benchjson converts `go test -bench` output into a stable JSON
// document, and compares two such documents for wall-clock regressions.
// It is the machinery behind the CI benchmark gate and the committed
// BENCH_sim.json trajectory file.
//
// Usage:
//
//	go test -bench Sim -benchmem -count 5 . | benchjson > BENCH_sim.json
//	benchjson -compare base.json head.json -threshold 15
//
// Conversion reads benchmark lines from stdin (or from files named as
// arguments), groups repeated runs of the same benchmark, and records the
// median ns/op, B/op and allocs/op per benchmark — medians so that one
// noisy run on a shared CI box cannot move the recorded number.
//
// Compare exits 2 when any benchmark present in both files is slower in
// head by more than threshold percent (default 15), printing a per-
// benchmark delta table either way. Missing counters (no -benchmem) are
// recorded as -1 and never compared.
//
// Custom benchmark metrics (testing.B.ReportMetric) are recorded in a
// per-benchmark "metrics" map. Throughput metrics — any whose unit ends
// in "/sec", like the expansion grid's points/sec — join the regression
// gate with the sign flipped: higher is better, so head falling below
// base by more than threshold percent fails the compare.
//
// History mode records the perf trajectory across commits rather than
// just the latest snapshot:
//
//	go test -bench Sim -benchmem -count 5 . | benchjson -history BENCH_history.json -commit $(git rev-parse --short HEAD)
//
// It parses benchmark output exactly like conversion, then appends a
// dated, commit-tagged entry to the named history file (created if
// missing). Re-running for the same commit replaces that commit's entry
// instead of duplicating it, so a retried CI job stays idempotent.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	exitOK         = 0
	exitUsage      = 1
	exitRegression = 2
)

// Bench is the recorded shape of one benchmark.
type Bench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Samples     int     `json:"samples"`
	// Metrics records custom per-op metrics (testing.B.ReportMetric) by
	// unit, e.g. "points/sec" for the batch benches.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is the document benchjson emits and consumes.
type File struct {
	Benchmarks map[string]Bench `json:"benchmarks"`
}

// HistoryEntry is one commit's recorded benchmark medians.
type HistoryEntry struct {
	Date       string           `json:"date"`
	Commit     string           `json:"commit"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

// HistoryFile is the append-only perf trajectory document.
type HistoryFile struct {
	Entries []HistoryEntry `json:"entries"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		compare   = fs.Bool("compare", false, "compare two JSON files: benchjson -compare base.json head.json")
		threshold = fs.Float64("threshold", 15, "percent ns/op slowdown that fails -compare")
		history   = fs.String("history", "", "append a dated, commit-tagged entry to this history file instead of emitting a snapshot")
		commit    = fs.String("commit", "", "commit id recorded with -history (default \"unknown\")")
		date      = fs.String("date", "", "date recorded with -history as YYYY-MM-DD (default today, UTC)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchjson: -compare needs exactly two files: base.json head.json")
			return exitUsage
		}
		return runCompare(fs.Arg(0), fs.Arg(1), *threshold, stdout, stderr)
	}
	if *history != "" {
		return runHistory(*history, *commit, *date, fs.Args(), stdin, stdout, stderr)
	}
	return runConvert(fs.Args(), stdin, stdout, stderr)
}

// collect parses benchmark output from the named files (or stdin when
// none) and reduces repeated runs to per-benchmark medians.
func collect(paths []string, stdin io.Reader) (File, error) {
	readers := []io.Reader{stdin}
	closers := []io.Closer{}
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	if len(paths) > 0 {
		readers = readers[:0]
		for _, p := range paths {
			f, err := os.Open(p)
			if err != nil {
				return File{}, err
			}
			closers = append(closers, f)
			readers = append(readers, f)
		}
	}
	samples := map[string][]Bench{}
	for _, r := range readers {
		if err := parseBenchOutput(r, samples); err != nil {
			return File{}, err
		}
	}
	out := File{Benchmarks: map[string]Bench{}}
	for name, runs := range samples {
		b := Bench{
			NsPerOp:     median(runs, func(b Bench) float64 { return b.NsPerOp }),
			BytesPerOp:  median(runs, func(b Bench) float64 { return b.BytesPerOp }),
			AllocsPerOp: median(runs, func(b Bench) float64 { return b.AllocsPerOp }),
			Samples:     len(runs),
		}
		byUnit := map[string][]float64{}
		for _, r := range runs {
			for unit, v := range r.Metrics {
				byUnit[unit] = append(byUnit[unit], v)
			}
		}
		if len(byUnit) > 0 {
			b.Metrics = make(map[string]float64, len(byUnit))
			for unit, vals := range byUnit {
				sort.Float64s(vals)
				b.Metrics[unit] = medianOf(vals)
			}
		}
		out.Benchmarks[name] = b
	}
	return out, nil
}

func runConvert(paths []string, stdin io.Reader, stdout, stderr io.Writer) int {
	out, err := collect(paths, stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return exitUsage
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return exitUsage
	}
	return exitOK
}

// runHistory appends (or, for a repeated commit, replaces) one entry in
// the perf-trajectory file. The file is created on first use; corrupt
// history is an error rather than silently restarting the record.
func runHistory(path, commit, date string, paths []string, stdin io.Reader, stdout, stderr io.Writer) int {
	snap, err := collect(paths, stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return exitUsage
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchjson: -history: no benchmarks in input")
		return exitUsage
	}
	if commit == "" {
		commit = "unknown"
	}
	if date == "" {
		date = time.Now().UTC().Format("2006-01-02")
	}

	var hist HistoryFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &hist); err != nil {
			fmt.Fprintf(stderr, "benchjson: %s: %v\n", path, err)
			return exitUsage
		}
	} else if !os.IsNotExist(err) {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return exitUsage
	}

	entry := HistoryEntry{Date: date, Commit: commit, Benchmarks: snap.Benchmarks}
	replaced := false
	for i := range hist.Entries {
		if hist.Entries[i].Commit == commit && commit != "unknown" {
			hist.Entries[i] = entry
			replaced = true
			break
		}
	}
	if !replaced {
		hist.Entries = append(hist.Entries, entry)
	}

	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(hist); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return exitUsage
	}
	if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return exitUsage
	}
	verb := "appended to"
	if replaced {
		verb = "replaced in"
	}
	fmt.Fprintf(stdout, "benchjson: %d benchmark(s) %s %s (%s, %s; %d entries)\n",
		len(entry.Benchmarks), verb, path, date, commit, len(hist.Entries))
	return exitOK
}

// benchLine matches e.g.
//
//	BenchmarkSimScatter64K-8   36   34233920 ns/op   201736 B/op   519 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

func parseBenchOutput(r io.Reader, into map[string][]Bench) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		b := Bench{NsPerOp: -1, BytesPerOp: -1, AllocsPerOp: -1}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue // custom metric with non-numeric value; skip pair
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				// Custom ReportMetric pair, recorded by unit.
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		if b.NsPerOp < 0 {
			continue // not a timing line (e.g. a metric-only continuation)
		}
		into[name] = append(into[name], b)
	}
	return sc.Err()
}

func median(runs []Bench, get func(Bench) float64) float64 {
	vals := make([]float64, 0, len(runs))
	for _, r := range runs {
		vals = append(vals, get(r))
	}
	sort.Float64s(vals)
	return medianOf(vals)
}

// medianOf returns the median of an already-sorted slice.
func medianOf(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return -1
	}
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

func runCompare(basePath, headPath string, threshold float64, stdout, stderr io.Writer) int {
	base, err := readFile(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return exitUsage
	}
	head, err := readFile(headPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return exitUsage
	}
	names := make([]string, 0, len(head.Benchmarks))
	for name := range head.Benchmarks {
		if _, ok := base.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmarks in common")
		return exitUsage
	}
	regressions := 0
	fmt.Fprintf(stdout, "%-28s %14s %14s %8s\n", "benchmark", "base ns/op", "head ns/op", "delta")
	for _, name := range names {
		b, h := base.Benchmarks[name], head.Benchmarks[name]
		delta := 100 * (h.NsPerOp - b.NsPerOp) / b.NsPerOp
		mark := ""
		if delta > threshold {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(stdout, "%-28s %14.0f %14.0f %+7.1f%%%s\n", name, b.NsPerOp, h.NsPerOp, delta, mark)
		// Throughput metrics gate with the sign flipped: higher is better.
		units := make([]string, 0, len(h.Metrics))
		for unit := range h.Metrics {
			if strings.HasSuffix(unit, "/sec") {
				if _, ok := b.Metrics[unit]; ok {
					units = append(units, unit)
				}
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			bv, hv := b.Metrics[unit], h.Metrics[unit]
			if bv <= 0 {
				continue
			}
			delta := 100 * (hv - bv) / bv
			mark := ""
			if delta < -threshold {
				mark = "  REGRESSION"
				regressions++
			}
			fmt.Fprintf(stdout, "%-28s %14.0f %14.0f %+7.1f%%%s\n", name+" ["+unit+"]", bv, hv, delta, mark)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stderr, "benchjson: %d benchmark(s) slower than base by more than %g%%\n", regressions, threshold)
		return exitRegression
	}
	return exitOK
}

func readFile(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return File{}, fmt.Errorf("%s: no benchmarks", path)
	}
	return f, nil
}
