package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the dxbench CLI")

// childEnv marks a test binary started by the driver under test: it runs
// the benchmark's main instead of the tests.
const childEnv = "DXBSP_BENCH_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
	}
	code := m.Run()
	if cli.path != "" {
		os.RemoveAll(filepath.Dir(cli.path))
	}
	os.Exit(code)
}

var cli struct {
	once sync.Once
	path string
	err  error
}

// dxbench builds cmd/dxbench once per test binary.
func dxbench(t *testing.T) string {
	t.Helper()
	cli.once.Do(func() {
		dir, err := os.MkdirTemp("", "dxbench-cli-")
		if err != nil {
			cli.err = err
			return
		}
		cli.path = filepath.Join(dir, "dxbench")
		out, err := exec.Command("go", "build", "-o", cli.path, "dxbsp/cmd/dxbench").CombinedOutput()
		if err != nil {
			cli.err = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if cli.err != nil {
		t.Fatalf("building cmd/dxbench: %v", cli.err)
	}
	return cli.path
}

// cliRun runs w's dxbench recipe and returns what the driver must
// reproduce: the stdout of every step that renders, joined by blank
// lines, with T3's block cut (it times the host), plus the metrics export.
func cliRun(t *testing.T, w *workload, quick bool) (render, export []byte) {
	t.Helper()
	bin, dir := dxbench(t), t.TempDir()
	var renders [][]byte
	for _, step := range w.cli {
		args := make([]string, len(step))
		for i, a := range step {
			args[i] = strings.ReplaceAll(a, "DIR", dir)
		}
		if quick && args[0] != "-merge" && !slices.Contains(args, "-quick") {
			args = append(args, "-quick")
		}
		var stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("dxbench %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		if !slices.Contains(args, "-shard") && args[0] != "-merge" {
			renders = append(renders, out)
		}
	}
	render = bytes.Join(renders, []byte("\n"))
	if i := bytes.Index(render, []byte("== T3:")); i >= 0 {
		if j := bytes.Index(render[i:], []byte("\n== ")); j >= 0 {
			render = append(render[:i:i], render[i+j+1:]...)
		}
	}
	export, err := os.ReadFile(filepath.Join(dir, "metrics.json"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return render, export
}

// TestCLIParity checks, at quick scale, that each workload's in-process
// stack renders the same bytes as its dxbench command line.
func TestCLIParity(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, err := w.run(context.Background(), &repEnv{cfg: w.config(defaultSeed, true), m: &meter{}, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			render, export := cliRun(t, w, true)
			if !bytes.Equal(out.render, render) {
				t.Errorf("render differs from dxbench's:\n--- driver\n%s\n--- dxbench\n%s", out.render, render)
			}
			if !bytes.Equal(out.export, export) {
				t.Errorf("metrics export differs from dxbench's:\n--- driver\n%s\n--- dxbench\n%s", out.export, export)
			}
		})
	}
}

// TestGolden checks testdata/golden.json against the dxbench CLI at paper
// scale and the default seed; -update rewrites it.
func TestGolden(t *testing.T) {
	g := golden{Seed: defaultSeed, Workloads: map[string]goldenDigests{}}
	for _, w := range workloads {
		render, export := cliRun(t, w, false)
		g.Workloads[w.name] = goldenDigests{Render: digest(render), Export: digest(export)}
	}
	if *update {
		b, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if want.Seed != g.Seed {
		t.Errorf("golden seed %#x, want %#x", want.Seed, g.Seed)
	}
	for name, d := range g.Workloads {
		if want.Workloads[name] != d {
			t.Errorf("%s: golden %+v, dxbench gives %+v (rerun with -update if the change is intended)", name, want.Workloads[name], d)
		}
	}
}

// TestTracedSmoke runs every workload for one quick traced rep and checks
// that it passes its checks and yields every per-layer metric.
func TestTracedSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runTrial(ctx, trialOpts{w: w, cfg: w.config(defaultSeed, true), trace: true,
				dir: t.TempDir(), spans: filepath.Join(t.TempDir(), "spans.jsonl"), exec: time.Now()})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.RepS) != 1 || res.BadReps != 0 || res.FailedPoints != 0 {
				t.Errorf("%d reps, %d bad, %d failed points: %v", len(res.RepS), res.BadReps, res.FailedPoints, res.Problems)
			}
			for _, s := range perLayer {
				if _, ok := res.Layers[s.name]; !ok {
					t.Errorf("no per-layer metric %s", s.name)
				}
			}
			if res.Closure <= 0 || res.Closure > 1+1e-9 {
				t.Errorf("layers account for %v of the rep, want (0, 1]", res.Closure)
			}
			if res.Layers["sim.cycles_total"] <= 0 || res.Layers["runner.cache.calls"] <= 0 {
				t.Errorf("sim.cycles_total %v, runner.cache.calls %v: the trace missed the stack",
					res.Layers["sim.cycles_total"], res.Layers["runner.cache.calls"])
			}
			v, err := check(ctx, w, defaultSeed, true, t.TempDir(), res.Render, res.Export)
			if err != nil {
				t.Fatal(err)
			}
			if len(v.problems) > 0 {
				t.Errorf("checks failed: %v", v.problems)
			}
		})
	}
}

// TestDriverResultLine runs the driver end to end, children included, and
// checks the machine-read last line against BENCHMARK.json's metric lists.
func TestDriverResultLine(t *testing.T) {
	t.Setenv(childEnv, "1") // the children are this test binary
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), []string{"-workload", "huge-surrogate", "-quick", "-seconds", "0.05",
			"-trace", trace, "-workdir", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("-trace %s: exit %d\n%s%s", trace, code, stdout.Bytes(), stderr.Bytes())
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			t.Fatal(err)
		}
		specs := endToEnd
		if trace == "1" {
			specs = perLayer
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(specs) {
			t.Errorf("-trace %s: correct %v, attempted %d, failed %d, %d metrics", trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics))
		}
		for _, s := range specs {
			if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
				t.Errorf("-trace %s: metric %s = %+v, want unit %s", trace, s.name, m, s.unit)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps ../BENCHMARK.json in step with the
// workload table and the metric specs.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, driver %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the driver", kind, len(got), len(want))
			return
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.name || g.Unit != s.unit || g.Better != s.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != s.bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, driver %+v", kind, i, g, s)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd, true)
	same("per_layer", bj.PerLayer, perLayer, false)
}

func TestAccountSpans(t *testing.T) {
	// root [0,100) with two concurrent children [10,50) and [30,90); the
	// second has a child [40,60).
	st := accountSpans([]span{
		{ID: 1, Name: "root", Start: 0, End: 100e9},
		{ID: 2, Parent: 1, Name: "a", Start: 10e9, End: 50e9},
		{ID: 3, Parent: 1, Name: "b", Start: 30e9, End: 90e9},
		{ID: 4, Parent: 3, Name: "c", Start: 40e9, End: 60e9},
	})
	// a runs itself alone on [10,30), shares [30,40) with b and [40,50)
	// with c; b runs alone on [60,90); c alone on [50,60).
	want := map[string]float64{"root": 20, "a": 20 + 5 + 5, "b": 5 + 30, "c": 5 + 10}
	total := 0.0
	for name, w := range want {
		if got := st.self[name]; got < w-1e-9 || got > w+1e-9 {
			t.Errorf("self[%s] = %v, want %v", name, got, w)
		}
		total += st.self[name]
	}
	if total < 100-1e-9 || total > 100+1e-9 {
		t.Errorf("self times add to %v, want the root's 100", total)
	}
}
