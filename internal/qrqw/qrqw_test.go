package qrqw

import (
	"math"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/hashfn"
	"dxbsp/internal/rng"
)

func TestStepCost(t *testing.T) {
	// 4 procs; two access location 5, one accesses 6, one does two ops.
	st := NewStep([][]uint64{{5}, {5}, {6}, {7, 8}})
	if got := st.MaxOps(); got != 2 {
		t.Errorf("MaxOps = %d", got)
	}
	if got := st.Contention(); got != 2 {
		t.Errorf("Contention = %d", got)
	}
	if got := st.Cost(); got != 2 {
		t.Errorf("Cost = %d", got)
	}
	if got := st.Requests(); got != 5 {
		t.Errorf("Requests = %d", got)
	}
}

func TestStepCostContentionDominates(t *testing.T) {
	st := NewStep([][]uint64{{1}, {1}, {1}, {1}})
	if got := st.Cost(); got != 4 {
		t.Errorf("Cost = %d, want contention 4", got)
	}
}

func TestProgramTimeWork(t *testing.T) {
	p := Program{
		V: 4,
		Steps: []Step{
			NewStep([][]uint64{{1}, {1}, {2}, {3}}), // cost 2
			NewStep([][]uint64{{1}, {2}, {3}, {4}}), // cost 1
		},
	}
	if p.Time() != 3 {
		t.Errorf("Time = %d", p.Time())
	}
	if p.Work() != 12 {
		t.Errorf("Work = %d", p.Work())
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := Program{V: 3, Steps: []Step{NewStep([][]uint64{{1}})}}
	if err := bad.Validate(); err == nil {
		t.Error("mismatched step accepted")
	}
	if err := (Program{V: 0}).Validate(); err == nil {
		t.Error("V=0 accepted")
	}
}

func TestRandomProgramShape(t *testing.T) {
	g := rng.New(1)
	p := RandomProgram(64, 5, 1<<20, g)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 5 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
	for _, st := range p.Steps {
		if st.MaxOps() != 1 {
			t.Fatalf("MaxOps = %d, want 1", st.MaxOps())
		}
		// Over a 2^20 space with 64 procs, contention should be tiny.
		if st.Contention() > 3 {
			t.Errorf("random program contention = %d", st.Contention())
		}
	}
}

func TestContentionProgramExact(t *testing.T) {
	g := rng.New(2)
	for _, k := range []int{1, 4, 16, 64} {
		p := ContentionProgram(64, 3, k, 1, g)
		for i, st := range p.Steps {
			if got := st.Contention(); got != k {
				t.Errorf("k=%d step %d: contention %d", k, i, got)
			}
			if st.Cost() != maxInt(1, k) {
				t.Errorf("k=%d: cost %d", k, st.Cost())
			}
		}
	}
}

func TestContentionProgramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k not dividing v")
		}
	}()
	ContentionProgram(10, 1, 3, 1, rng.New(1))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func emulationMachine(banks int) core.Machine {
	return core.Machine{Name: "emu", Procs: 8, Banks: banks, D: 8, G: 1, L: 64}
}

func hashedMap(banks int, seed uint64) core.BankMap {
	return hashfn.Map{F: hashfn.NewLinear(hashfn.Log2Banks(banks), rng.New(seed))}
}

func TestEmulateLowContentionIsWorkEfficient(t *testing.T) {
	// High slackness, low contention, x = 16 >= d = 8: the emulation
	// should be work-preserving within a small constant.
	m := emulationMachine(128) // x = 16
	v := 8192                  // slackness 1024
	prog := RandomProgram(v, 4, 1<<30, rng.New(3))
	res, err := Emulate(prog, m, hashedMap(m.Banks, 7), Analytic)
	if err != nil {
		t.Fatal(err)
	}
	if res.QRQWTime == 0 {
		t.Fatal("zero QRQW time")
	}
	over := res.WorkOverhead()
	if over > 4 {
		t.Errorf("work overhead %v too high for x >= d with large slackness", over)
	}
	if over < 0.9 {
		t.Errorf("work overhead %v below 1 — accounting bug?", over)
	}
}

func TestEmulateLowExpansionPaysDOverX(t *testing.T) {
	// x = 2 < d = 8: work overhead should approach d/x = 4 on
	// contention-free programs (bank bandwidth is the bottleneck).
	m := emulationMachine(16) // x = 2
	v := 8192
	prog := RandomProgram(v, 4, 1<<30, rng.New(4))
	res, err := Emulate(prog, m, hashedMap(m.Banks, 9), Analytic)
	if err != nil {
		t.Fatal(err)
	}
	over := res.WorkOverhead()
	want := InevitableWorkOverhead(m) // 4
	if want != 4 {
		t.Fatalf("InevitableWorkOverhead = %v, want 4", want)
	}
	if over < want*0.8 || over > want*2.5 {
		t.Errorf("work overhead %v, want near %v", over, want)
	}
}

func TestEmulateSimulateAgreesWithAnalytic(t *testing.T) {
	m := emulationMachine(128)
	prog := RandomProgram(2048, 2, 1<<30, rng.New(5))
	bm := hashedMap(m.Banks, 11)
	a, err := Emulate(prog, m, bm, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Emulate(prog, m, bm, Simulate)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := s.Cycles / a.Cycles; ratio < 0.5 || ratio > 2 {
		t.Errorf("simulate/analytic = %v", ratio)
	}
}

func TestEmulateContentionSlowsProportionally(t *testing.T) {
	// Emulated time of a κ-contention step should grow ~linearly in κ
	// once d*κ dominates, and the QRQW cost grows linearly too, so the
	// slowdown stays bounded — the queue rule models the machine.
	m := emulationMachine(128)
	v := 4096
	g := rng.New(6)
	var prevSlow float64
	for i, k := range []int{64, 256, 1024, 4096} {
		prog := ContentionProgram(v, 2, k, uint64(m.Banks+1), g)
		res, err := Emulate(prog, m, hashedMap(m.Banks, 13), Analytic)
		if err != nil {
			t.Fatal(err)
		}
		slow := res.Slowdown()
		if i > 0 && slow > prevSlow*1.7 {
			t.Errorf("k=%d: slowdown %v jumped from %v; queue rule should keep it stable", k, slow, prevSlow)
		}
		prevSlow = slow
	}
}

func TestEmulateErrors(t *testing.T) {
	m := emulationMachine(128)
	if _, err := Emulate(Program{V: 0}, m, nil, Analytic); err == nil {
		t.Error("invalid program accepted")
	}
	if _, err := Emulate(RandomProgram(8, 1, 100, rng.New(1)), core.Machine{}, nil, Analytic); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestInevitableWorkOverheadClamp(t *testing.T) {
	m := emulationMachine(1024) // x = 128 >> d = 8
	if got := InevitableWorkOverhead(m); got != 1 {
		t.Errorf("high expansion overhead = %v, want 1", got)
	}
}

func TestBernoulliH(t *testing.T) {
	if h := BernoulliH(0); h != 0 {
		t.Errorf("h(0) = %v", h)
	}
	if h := BernoulliH(1); math.Abs(h-(2*math.Log(2)-1)) > 1e-12 {
		t.Errorf("h(1) = %v", h)
	}
	if !math.IsInf(BernoulliH(-1.5), 1) {
		t.Error("h(<-1) should be +Inf")
	}
	// Monotone increasing for δ > 0.
	prev := 0.0
	for d := 0.5; d < 10; d += 0.5 {
		h := BernoulliH(d)
		if h <= prev {
			t.Fatalf("h not increasing at %v", d)
		}
		prev = h
	}
}

func TestMinSlacknessBehaviour(t *testing.T) {
	m := emulationMachine(128) // x=16, d=8
	// Target overhead below d/x is impossible.
	if s := MinSlacknessWorkPreserving(m, 0.4); !math.IsInf(s, 1) {
		t.Errorf("alpha below d/x should need infinite slackness, got %v", s)
	}
	// Achievable target: finite, and decreasing in alpha.
	s2 := MinSlacknessWorkPreserving(m, 2)
	s4 := MinSlacknessWorkPreserving(m, 4)
	if math.IsInf(s2, 1) || s2 <= 0 {
		t.Fatalf("s(alpha=2) = %v", s2)
	}
	if s4 >= s2 {
		t.Errorf("slackness should fall as alpha rises: s(2)=%v s(4)=%v", s2, s4)
	}
	// More expansion (same d): less slackness needed for the same alpha.
	mBig := emulationMachine(1024) // x = 128
	if sBig := MinSlacknessWorkPreserving(mBig, 2); sBig >= s2 {
		t.Errorf("expansion should reduce required slackness: x=16 %v vs x=128 %v", s2, sBig)
	}
}

func TestStepTimeBoundHolds(t *testing.T) {
	// Empirical check of the Theorem 5.2 shape: with slackness at least
	// MinSlacknessWorkPreserving(alpha), the emulated per-step time stays
	// below the bound for random low-contention steps.
	m := emulationMachine(128)
	alpha := 2.0
	sMin := MinSlacknessWorkPreserving(m, alpha)
	v := int(math.Ceil(sMin)) * m.Procs * 2
	prog := RandomProgram(v, 3, 1<<30, rng.New(8))
	res, err := Emulate(prog, m, hashedMap(m.Banks, 17), Analytic)
	if err != nil {
		t.Fatal(err)
	}
	slack := float64(v) / float64(m.Procs)
	for i, c := range res.PerStep {
		bound := StepTimeBoundHighExpansion(m, slack, alpha, prog.Steps[i].Cost())
		if c > bound {
			t.Errorf("step %d: emulated %v exceeds bound %v", i, c, bound)
		}
	}
}

// Step.Contention agrees with a map count over the step's accesses, and
// the program-level loops (which share one Profiler across steps) agree
// with it step by step.
func TestContentionMatchesMap(t *testing.T) {
	g := rng.New(11)
	prog := Program{V: 64}
	var lists [][][]uint64
	for s := 0; s < 40; s++ {
		acc := make([][]uint64, prog.V)
		span := uint64(1) << (2 * (s % 20)) // dense and sparse spans
		for vp := range acc {
			for k := g.Intn(4); k > 0; k-- {
				acc[vp] = append(acc[vp], (1<<50)+g.Uint64n(span))
			}
		}
		lists = append(lists, acc)
	}
	lists = append(lists, make([][]uint64, prog.V)) // empty step
	for _, acc := range lists {
		prog.Steps = append(prog.Steps, NewStep(acc))
	}
	want := make([]int, len(prog.Steps))
	time, maxC := 0, 0
	for i, st := range prog.Steps {
		counts := map[uint64]int{}
		for _, acc := range lists[i] {
			for _, a := range acc {
				counts[a]++
				want[i] = max(want[i], counts[a])
			}
		}
		if got := st.Contention(); got != want[i] {
			t.Errorf("step %d: Contention = %d, map oracle %d", i, got, want[i])
		}
		time += max(st.MaxOps(), want[i])
		maxC = max(maxC, want[i])
	}
	got := prog.StepContentions()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("StepContentions[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if prog.Time() != time || prog.MaxContention() != maxC {
		t.Errorf("Time, MaxContention = %d, %d; want %d, %d", prog.Time(), prog.MaxContention(), time, maxC)
	}
}
