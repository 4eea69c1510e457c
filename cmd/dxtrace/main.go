// Command dxtrace reads a memory address trace (one decimal or 0x-hex
// address per line; '#' comments and blank lines ignored) and reports its
// contention profile and predicted cost on each experiment machine. Use it
// to analyze traces captured from real applications the way the paper
// analyzed patterns extracted from the connected-components code.
//
// Usage:
//
//	dxtrace trace.txt
//	dxtrace -machine J90 -hash linear < trace.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dxbsp/internal/core"
	"dxbsp/internal/hashfn"
	"dxbsp/internal/rng"
	"dxbsp/internal/sim"
	"dxbsp/internal/trace"
)

func main() {
	var (
		machine = flag.String("machine", "", "restrict to one machine (default: J90 and C90)")
		hash    = flag.String("hash", "interleave", "bank map: interleave, linear, quadratic, cubic")
		seed    = flag.Uint64("seed", 1, "hash draw seed")
	)
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		in = f
	}
	addrs, err := trace.Read(in)
	if err != nil {
		fail("%v", err)
	}
	if len(addrs) == 0 {
		fail("empty trace")
	}

	machines := []core.Machine{core.J90(), core.C90()}
	if *machine != "" {
		m, ok := core.LookupMachine(*machine)
		if !ok {
			fail("unknown machine %q", *machine)
		}
		machines = []core.Machine{m}
	}

	for _, m := range machines {
		bm, err := bankMap(m, *hash, *seed)
		if err != nil {
			fail("%v", err)
		}
		pt := core.NewPattern(addrs, m.Procs)
		prof := core.ComputeProfile(pt, bm)
		r, err := sim.Run(sim.Config{Machine: m, BankMap: bm}, pt)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("%s: n=%d h=%d k=%d κ=%d distinct=%d\n",
			m.Name, prof.N, prof.MaxH, prof.MaxK, prof.MaxLoc, prof.DistinctLocs)
		fmt.Printf("  BSP=%.0f  (d,x)-BSP=%.0f  simulated=%.0f cycles (%.3f cyc/elem)\n",
			m.PredictBSP(prof.Loads), m.PredictDXBSP(prof.Loads), r.Cycles,
			core.CyclesPerElement(r.Cycles, prof.N, m.Procs))
	}
}

func bankMap(m core.Machine, name string, seed uint64) (core.BankMap, error) {
	if name == "interleave" {
		return core.InterleaveMap{Banks: m.Banks}, nil
	}
	bits := hashfn.Log2Banks(m.Banks)
	g := rng.New(seed)
	switch name {
	case "linear":
		return hashfn.Map{F: hashfn.NewLinear(bits, g)}, nil
	case "quadratic":
		return hashfn.Map{F: hashfn.NewQuadratic(bits, g)}, nil
	case "cubic":
		return hashfn.Map{F: hashfn.NewCubic(bits, g)}, nil
	}
	return nil, fmt.Errorf("unknown hash %q", name)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dxtrace: "+format+"\n", args...)
	os.Exit(2)
}
