package qrqw

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

// naiveEmulate is the oracle for Emulate's Analytic mode and for Time: it
// works on the per-virtual-processor lists themselves, hands them out
// round-robin into one [][]uint64 per physical processor, charges each
// step with core.ComputeLoads and PredictDXBSP, and counts κ with a map.
func naiveEmulate(lists [][][]uint64, m core.Machine, bm core.BankMap) (perStep []float64, cycles float64, time int, per [][][]uint64) {
	for _, acc := range lists {
		pp := make([][]uint64, m.Procs)
		counts := map[uint64]int{}
		maxOps, kappa := 0, 0
		for vp, a := range acc {
			pp[vp%m.Procs] = append(pp[vp%m.Procs], a...)
			maxOps = max(maxOps, len(a))
			for _, x := range a {
				counts[x]++
				kappa = max(kappa, counts[x])
			}
		}
		c := m.PredictDXBSP(core.ComputeLoads(core.Pattern{PerProc: pp}, bm))
		perStep = append(perStep, c)
		cycles += c
		time += max(maxOps, kappa)
		per = append(per, pp)
	}
	return perStep, cycles, time, per
}

// randomLists draws a program's per-virtual-processor lists: ragged
// lengths 0..3, whole steps sometimes empty, addresses over a span narrow
// enough to collide or wide enough not to.
func randomLists(g *rng.Xoshiro256, v, steps int) [][][]uint64 {
	lists := make([][][]uint64, steps)
	for s := range lists {
		lists[s] = make([][]uint64, v)
		if g.Intn(5) == 0 {
			continue // an empty step
		}
		span := uint64(1) << (1 + g.Intn(40))
		for vp := range lists[s] {
			for k := g.Intn(4); k > 0; k-- {
				lists[s][vp] = append(lists[s][vp], g.Uint64n(span))
			}
		}
	}
	return lists
}

// Emulate's Analytic charge from the flat steps and Time's stored κ match
// the per-processor oracle bit for bit, over random ragged programs with
// V not a multiple of p, p > V, and interleaved and hashed bank maps. The
// Simulate mode's pattern matches the oracle's per-processor lists.
func TestEmulateMatchesNaiveOracle(t *testing.T) {
	g := rng.New(21)
	for trial := 0; trial < 300; trial++ {
		v, p := 1+g.Intn(40), 1+g.Intn(64)
		banks := 2 << g.Intn(9)
		m := core.Machine{Name: "o", Procs: p, Banks: banks, D: float64(1 + g.Intn(20)), G: float64(1 + g.Intn(2)), L: float64(g.Intn(2) * 64)}
		var bm core.BankMap // nil: Emulate's interleave default
		switch trial % 3 {
		case 1:
			bm = core.InterleaveMap{Banks: 3 + g.Intn(100)} // bank count unlike m's
		case 2:
			bm = hashedMap(banks, uint64(trial))
		}
		oracleMap := bm
		if oracleMap == nil {
			oracleMap = core.InterleaveMap{Banks: banks}
		}
		lists := randomLists(g, v, g.Intn(7))
		prog := Program{V: v}
		for _, acc := range lists {
			prog.Steps = append(prog.Steps, NewStep(acc))
		}
		name := fmt.Sprintf("trial %d (v=%d p=%d banks=%d map %d)", trial, v, p, banks, trial%3)

		wantPer, wantCycles, wantTime, wantPP := naiveEmulate(lists, m, oracleMap)
		res, err := Emulate(prog, m, bm, Analytic)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.QRQWTime != wantTime || prog.Time() != wantTime {
			t.Errorf("%s: QRQW time %d (Time %d), oracle %d", name, res.QRQWTime, prog.Time(), wantTime)
		}
		if math.Float64bits(res.Cycles) != math.Float64bits(wantCycles) || len(res.PerStep) != len(wantPer) {
			t.Fatalf("%s: cycles %v over %d steps, oracle %v over %d", name, res.Cycles, len(res.PerStep), wantCycles, len(wantPer))
		}
		for i := range wantPer {
			if math.Float64bits(res.PerStep[i]) != math.Float64bits(wantPer[i]) {
				t.Errorf("%s step %d: %v, oracle %v", name, i, res.PerStep[i], wantPer[i])
			}
			got := prog.Steps[i].pattern(p).PerProc
			if !slices.EqualFunc(got, wantPP[i], slices.Equal[[]uint64]) {
				t.Errorf("%s step %d: pattern %v, oracle %v", name, i, got, wantPP[i])
			}
		}
	}
}

// A warm Analytic emulation allocates only the PerStep slice it returns,
// also under a nil map: the default interleave map over 512 banks is
// boxed once, not per call.
func TestEmulateAnalyticAllocatesOnlyPerStep(t *testing.T) {
	m := emulationMachine(512)
	prog := ProgramFromTraces(randomTraces(rng.New(3), 6, 3000), 1024)
	for _, bm := range []core.BankMap{hashedMap(m.Banks, 5), core.InterleaveMap{Banks: m.Banks}, nil} {
		if _, err := Emulate(prog, m, bm, Analytic); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() { Emulate(prog, m, bm, Analytic) }); n != 1 {
			t.Errorf("%T: warm Analytic Emulate made %v allocations, want 1 (PerStep)", bm, n)
		}
	}
}

func randomTraces(g *rng.Xoshiro256, steps, n int) [][]uint64 {
	out := make([][]uint64, steps)
	for s := range out {
		out[s] = make([]uint64, g.Intn(n))
		for i := range out[s] {
			out[s][i] = g.Uint64n(uint64(n))
		}
	}
	return out
}

// Concurrent emulations share one program, as X12's points do: Program is
// read-only after construction, so this must pass under -race and give
// every goroutine the serial result.
func TestEmulateSharedProgramConcurrently(t *testing.T) {
	m := emulationMachine(128)
	bm := hashedMap(m.Banks, 9)
	erew := EREWProgram(2048, 3, rng.New(1))
	qr := ProgramFromTraces(randomTraces(rng.New(2), 5, 4000), 512)
	wantE, err := EmulateEREW(erew, m, bm, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	wantQ, err := Emulate(qr, m, bm, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers) // each worker sends at most once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				e, err1 := EmulateEREW(erew, m, bm, Analytic)
				q, err2 := Emulate(qr, m, bm, Analytic)
				switch {
				case err1 != nil || err2 != nil:
					errs <- fmt.Errorf("%v, %v", err1, err2)
					return
				case e.Cycles != wantE.Cycles || q.Cycles != wantQ.Cycles || q.QRQWTime != wantQ.QRQWTime:
					errs <- fmt.Errorf("concurrent cycles %v, %v; serial %v, %v", e.Cycles, q.Cycles, wantE.Cycles, wantQ.Cycles)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
