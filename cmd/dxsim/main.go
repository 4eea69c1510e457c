// Command dxsim runs a single bulk scatter/gather through the bank
// simulator and the (d,x)-BSP predictors and reports the contention
// profile, model predictions, and simulated cycles.
//
// Usage:
//
//	dxsim -machine J90 -pattern contention -k 1024 -n 65536
//	dxsim -machine C90 -pattern uniform -m 4096
//	dxsim -machine J90 -pattern entropy -rounds 4 -hash linear
//	dxsim -machine J90 -pattern stride -stride 512
//	dxsim -machine J90 -pattern stride -stride 3 -discipline dram
//	dxsim -journal runs/ckpt/journal.shard-0-of-4.jsonl
//
// Patterns: contention (k duplicates/location), uniform (over [0,m)),
// entropy (Thearling–Smith with -rounds AND rounds), stride, allsame,
// permutation, worstbank, zipf (-s exponent over [0,m)).
// Hash maps: interleave (default), linear, quadratic, cubic.
// Disciplines: fifo (default), dram, regulated, gpu (word-interleaved
// banks, warp-synchronous issue) — each run with its documented defaults
// and an extra per-discipline report line.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"dxbsp/internal/core"
	"dxbsp/internal/hashfn"
	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
	"dxbsp/internal/runner"
	"dxbsp/internal/sim"
	"dxbsp/internal/stats"
)

func main() {
	var (
		machine  = flag.String("machine", "J90", "machine name (J90, C90, or a Table 1 entry)")
		pattern  = flag.String("pattern", "uniform", "access pattern family")
		n        = flag.Int("n", 1<<16, "number of requests")
		k        = flag.Int("k", 16, "location contention for -pattern contention")
		m        = flag.Uint64("m", 1<<20, "address range for -pattern uniform/entropy")
		rounds   = flag.Int("rounds", 2, "AND rounds for -pattern entropy")
		stride   = flag.Uint64("stride", 1, "stride for -pattern stride")
		hash     = flag.String("hash", "interleave", "bank map: interleave, linear, quadratic, cubic")
		seed     = flag.Uint64("seed", 1, "random seed")
		sections = flag.Bool("sections", false, "model network section bandwidth")
		window   = flag.Int("window", 0, "max outstanding requests per processor (0 = unlimited)")
		discName = flag.String("discipline", "fifo", "bank service discipline: fifo, dram, regulated, gpu")
		zipfS    = flag.Float64("s", 1.1, "Zipf exponent for -pattern zipf")
		metricsF = flag.Bool("metrics", false, "append the observability report: bank heatmap + metric series")
		journalF = flag.String("journal", "", "inspect a checkpoint journal file and exit")
	)
	flag.Parse()

	if *journalF != "" {
		inspectJournal(*journalF)
		return
	}

	mach, ok := core.LookupMachine(*machine)
	if !ok {
		fail("unknown machine %q", *machine)
	}
	disc, err := sim.ParseDiscipline(*discName)
	if err != nil {
		fail("%v", err)
	}
	g := rng.New(*seed)

	var addrs []uint64
	switch *pattern {
	case "contention":
		if *n%*k != 0 {
			fail("-k must divide -n")
		}
		addrs = patterns.Contention(*n, *k, 1)
	case "uniform":
		addrs = patterns.Uniform(*n, *m, g)
	case "entropy":
		addrs = patterns.Entropy(*n, nextPow2(*m), *rounds, g)
	case "stride":
		addrs = patterns.Strided(*n, 0, *stride)
	case "allsame":
		addrs = patterns.AllSame(*n, 0)
	case "permutation":
		addrs = patterns.Permutation(*n, g)
	case "worstbank":
		addrs = patterns.WorstCaseBank(*n, mach.Banks)
	case "zipf":
		addrs = patterns.Zipf(*n, int(*m), *zipfS, g)
	default:
		fail("unknown pattern %q", *pattern)
	}

	var bm core.BankMap = core.InterleaveMap{Banks: mach.Banks}
	if disc == sim.GPUShared {
		// GPU shared memory is word-interleaved: bank = (addr/4) % banks.
		bm = core.GPUSharedMap{Banks: mach.Banks}
	}
	if *hash != "interleave" {
		bits := hashfn.Log2Banks(mach.Banks)
		switch *hash {
		case "linear":
			bm = hashfn.Map{F: hashfn.NewLinear(bits, g)}
		case "quadratic":
			bm = hashfn.Map{F: hashfn.NewQuadratic(bits, g)}
		case "cubic":
			bm = hashfn.Map{F: hashfn.NewCubic(bits, g)}
		default:
			fail("unknown hash %q", *hash)
		}
	}

	pt := core.NewPattern(addrs, mach.Procs)
	prof := core.ComputeProfile(pt, bm)
	var obs *runner.Observer
	cfg := sim.Config{Machine: mach, BankMap: bm, UseSections: *sections, Window: *window,
		Bank: sim.BankConfig{Discipline: disc}}
	if *metricsF {
		obs = runner.NewObserver()
		cfg.Probe = obs
	}
	r, err := sim.Run(cfg, pt)
	if err != nil {
		fail("%v", err)
	}

	fmt.Printf("machine    %v\n", mach)
	fmt.Printf("pattern    %s, n=%d\n", *pattern, prof.N)
	fmt.Printf("profile    h=%d  bank k=%d  location κ=%d  distinct=%d  bank-load gini=%.3f\n",
		prof.MaxH, prof.MaxK, prof.MaxLoc, prof.DistinctLocs, stats.Gini(prof.BankLoads))
	spectrum := core.LocationSpectrum(pt)
	levels := make([]int, 0, len(spectrum))
	for c := range spectrum {
		levels = append(levels, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(levels)))
	if len(levels) > 4 {
		levels = levels[:4]
	}
	fmt.Printf("spectrum   ")
	for _, c := range levels {
		fmt.Printf("κ=%d ×%d  ", c, spectrum[c])
	}
	fmt.Println()
	fmt.Printf("predicted  BSP=%.0f  (d,x)-BSP=%.0f cycles\n",
		mach.PredictBSP(prof.Loads), mach.PredictDXBSP(prof.Loads))
	fmt.Printf("simulated  %.0f cycles  (%.3f cycles/element, ratio to (d,x)-BSP %.3f)\n",
		r.Cycles, core.CyclesPerElement(r.Cycles, prof.N, mach.Procs),
		r.Cycles/mach.PredictDXBSP(prof.Loads))
	fmt.Printf("banks      max served=%d  max queue=%d  busy=%.0f cycles total\n",
		r.MaxBankServed, r.MaxBankQueue, r.BankBusy)
	if *sections {
		fmt.Printf("sections   max queue=%d\n", r.MaxSectionQueue)
	}
	switch disc {
	case sim.DRAM:
		fmt.Printf("dram       row hits=%d (%.1f%%)  row conflicts=%d\n",
			r.RowHits, 100*float64(r.RowHits)/float64(prof.N), r.RowConflicts)
	case sim.Regulated:
		fmt.Printf("regulated  throttle stalls=%d  stall cycles=%.0f (%.2f/request)\n",
			r.ThrottleStalls, r.ThrottleStallCycles, r.ThrottleStallCycles/float64(prof.N))
	case sim.GPUShared:
		fmt.Printf("gpu        warp replays=%d (%.2f/warp of %d lanes)\n",
			r.WarpReplays, float64(r.WarpReplays)/(float64(prof.N)/32), 32)
	}
	if obs != nil {
		fmt.Println()
		if err := obs.WriteReport(os.Stdout); err != nil {
			fail("%v", err)
		}
	}
}

// inspectJournal summarizes a checkpoint journal: who produced it (shard,
// a worker of the retired dynamic sweep mode, or a plain single-process
// run), which sweep configuration it
// fingerprints, and how many records it holds. Corrupt records are counted
// and warned about on stderr with their byte offsets, same as on resume —
// this is the quickest way to triage a journal a sweep refuses to merge.
func inspectJournal(path string) {
	if _, err := os.Stat(path); err != nil {
		fail("%v", err)
	}
	entries, hdr, skipped, err := runner.ReadJournalFile(path, os.Stderr)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("journal    %s\n", path)
	switch {
	case hdr == nil:
		fmt.Printf("producer   none recorded (plain -checkpoint run or merged journal)\n")
	case hdr.Worker != "":
		fmt.Printf("producer   worker %q\n", hdr.Worker)
	case hdr.Of > 0:
		fmt.Printf("producer   shard %d/%d\n", hdr.Shard, hdr.Of)
	default:
		fmt.Printf("producer   unsharded\n")
	}
	if hdr != nil && hdr.Config != "" {
		fmt.Printf("config     %s\n", hdr.Config)
	}
	pats := map[string]struct{}{}
	for k := range entries {
		if i := strings.LastIndex(k, "|pt="); i >= 0 {
			pats[k[i+4:]] = struct{}{}
		}
	}
	fmt.Printf("records    %d  (%d corrupt skipped, %d distinct patterns)\n",
		len(entries), skipped, len(pats))
	if skipped > 0 {
		os.Exit(1)
	}
}

func nextPow2(v uint64) uint64 {
	p := uint64(1)
	for p < v {
		p *= 2
	}
	return p
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dxsim: "+format+"\n", args...)
	os.Exit(2)
}
