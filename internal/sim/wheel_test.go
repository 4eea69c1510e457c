package sim

import (
	"context"
	"sort"
	"testing"
	"testing/quick"

	"dxbsp/internal/core"
	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
)

// TestEngineVsReferenceDifferential runs a broad sweep of random (p, x,
// d, g, Window, NetDelay, sections, combining, discipline) configurations
// through Run, the event engine and the per-clock RunReference oracle and
// asserts identical Results. Every delay is a multiple of 1/4 cycle, so
// the oracle covers the whole sweep: windows, sections, combining, DRAM
// bank groups and fractional event times included. The pop order is
// load-bearing (memo cache, checkpoint journal key on cycle counts), so
// any divergence here is a correctness bug, not a tolerance question.
func TestEngineVsReferenceDifferential(t *testing.T) {
	g := rng.New(0xD1FFE12E)
	const configs = 160 // ≥ 64 per the regression contract, ~20 per discipline
	for i := 0; i < configs; i++ {
		p := 1 + g.Intn(16)
		x := 1 + g.Intn(16)
		m := core.Machine{
			Name:  "diff",
			Procs: p,
			Banks: p * x,
			// Fractional quarters exercise non-integer event times; the
			// wheel's power-of-two bucket width must floor them exactly.
			D: float64(1+g.Intn(48)) / 4,
			G: float64(1+g.Intn(16)) / 4,
			L: float64(g.Intn(64)) / 2,
		}
		if g.Intn(2) == 1 {
			m.Sections = 2 + g.Intn(6)
			if m.Sections > m.Banks {
				m.Sections = m.Banks
			}
			m.SectionGap = float64(1+g.Intn(8)) / 4
		}
		cfg := Config{
			Machine:     m,
			Window:      []int{0, 0, 1 + g.Intn(32)}[g.Intn(3)],
			NetDelay:    float64(g.Intn(32)) / 4,
			UseSections: m.Sections > 1,
			Combining:   g.Intn(4) == 0,
		}
		if g.Intn(4) == 0 {
			cfg.Bank = BankConfig{CacheLines: 1 + g.Intn(4), HitDelay: float64(1+g.Intn(4)) / 2}
		}
		// Half the configs swap in a non-FIFO discipline; the draws respect
		// Validate's per-discipline knob rules (GPUShared forbids windows,
		// combining and sections).
		switch g.Intn(8) {
		case 0, 1:
			cfg.Bank = BankConfig{
				Discipline: DRAM,
				CacheLines: 1 + g.Intn(3),
				HitDelay:   float64(1+g.Intn(8)) / 4,
				MissDelay:  float64(1+g.Intn(64)) / 4,
				RowWords:   1 << g.Intn(7),
			}
			if g.Intn(2) == 0 {
				cfg.Bank.Groups = 1 + g.Intn(cfg.Machine.Banks)
				cfg.Bank.GroupGap = float64(1+g.Intn(8)) / 4
			}
		case 2, 3:
			cfg.Bank = BankConfig{
				Discipline: Regulated,
				RegWindow:  float64(1+g.Intn(64)) / 4,
				RegBudget:  1 + g.Intn(4),
			}
		case 4, 5:
			cfg.Machine.Sections, cfg.Machine.SectionGap = 0, 0
			cfg.Window, cfg.Combining, cfg.UseSections = 0, false, false
			cfg.Bank = BankConfig{Discipline: GPUShared, WarpSize: 1 + g.Intn(32)}
		}
		n := 1 << (6 + g.Intn(6))
		pt := core.NewPattern(patterns.Uniform(n, 1<<20, g.Split()), p)

		want, err := RunReference(cfg, pt)
		if err != nil {
			t.Fatalf("config %d: reference: %v", i, err)
		}
		for _, path := range []struct {
			name string
			run  func() (Result, error)
		}{
			{"Run", func() (Result, error) { return Run(cfg, pt) }},
			{"event engine", func() (Result, error) { return NewEngine().Run(context.Background(), cfg, pt) }},
		} {
			got, err := path.run()
			if err != nil {
				t.Fatalf("config %d: %s: %v", i, path.name, err)
			}
			if got != want {
				t.Fatalf("config %d (%+v, n=%d): %s disagrees with the reference:\n got:       %+v\n reference: %+v",
					i, cfg, n, path.name, got, want)
			}
		}
	}
}

// TestWheelQueueLevel drives the wheel directly through a long random
// push/pop interleaving that respects the engine's scheduling discipline
// (pushes land at or after the last pop, within the horizon) and checks
// every pop against a sorted-slice model of the pending set. This
// exercises the wheel's cursor wrap and bitmap advance over many laps,
// which whole-engine runs only hit incidentally.
func TestWheelQueueLevel(t *testing.T) {
	cfg := Config{Machine: core.Machine{Procs: 4, Banks: 16, D: 10, G: 1, L: 20}}.Normalize()
	h := schedHorizon(cfg) // 1 + 10 + 2*10 = 31

	g := rng.New(42)
	var w wheel
	w.reset(cfg, cfg.Machine.Procs)
	var model []event // pending events, kept sorted by eventLess
	pop := func() event {
		got, want := w.pop(), model[0]
		model = model[1:]
		if got != want {
			t.Fatalf("wheel popped %+v, model %+v", got, want)
		}
		return got
	}

	last := 0.0
	seq := 0
	for step := 0; step < 200000; step++ {
		if len(model) == 0 || (w.len() < 256 && g.Intn(2) == 0) {
			seq++
			// Quantized offsets in [0, h) so times collide across pushes
			// and tie-breaking is exercised; strictly under the horizon.
			ev := event{
				time: last + float64(g.Intn(int(h*8)))/8,
				seq:  seq,
				kind: eventKind(g.Intn(6)),
				proc: int32(g.Intn(4)),
			}
			w.push(ev)
			i := sort.Search(len(model), func(i int) bool { return eventLess(&ev, &model[i]) })
			model = append(model[:i], append([]event{ev}, model[i:]...)...)
			continue
		}
		last = pop().time
	}
	for len(model) > 0 {
		pop()
	}
	if w.len() != 0 {
		t.Fatalf("wheel reports %d events after drain", w.len())
	}
}

// A batch of colliding pushes drains in exactly sort order.
func TestEventQueueOrdersLikeSort(t *testing.T) {
	cfg := Config{Machine: core.Machine{Procs: 4, Banks: 16, D: 10, G: 1, L: 20}}.Normalize()
	f := func(seed uint64, nRaw uint16) bool {
		g := rng.New(seed)
		n := int(nRaw%500) + 1
		events := make([]event, n)
		for i := range events {
			// Deliberately collide times and kinds so the tie-breaks are
			// exercised; seq stays unique as in the engine.
			events[i] = event{
				time: float64(g.Intn(16)),
				kind: eventKind(g.Intn(6)),
				seq:  i,
				proc: int32(g.Intn(8)),
			}
		}
		var w wheel
		w.reset(cfg, cfg.Machine.Procs)
		for _, ev := range events {
			w.push(ev)
		}
		want := append([]event(nil), events...)
		sort.Slice(want, func(i, j int) bool { return eventLess(&want[i], &want[j]) })
		for i := range want {
			if w.pop() != want[i] {
				return false
			}
		}
		return w.len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEventLessTotalOrderFields(t *testing.T) {
	a := event{time: 1, kind: evInject, seq: 5}
	b := event{time: 2, kind: evInject, seq: 1}
	if !eventLess(&a, &b) {
		t.Error("earlier time must win")
	}
	c := event{time: 1, kind: evComplete, seq: 1}
	if !eventLess(&a, &c) {
		t.Error("lower kind must win on equal time")
	}
	d := event{time: 1, kind: evInject, seq: 6}
	if !eventLess(&a, &d) || eventLess(&d, &a) {
		t.Error("lower seq must win on equal time and kind")
	}
}

// TestWheelPanics pins the wheel's refusal to misorder: scheduling outside
// the bounded horizon and popping an empty queue both panic rather than
// silently corrupting the pop order.
func TestWheelPanics(t *testing.T) {
	cfg := Config{Machine: core.Machine{Procs: 4, Banks: 16, D: 10, G: 1, L: 0}}.Normalize()

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}

	mustPanic("beyond horizon", func() {
		var w wheel
		w.reset(cfg, cfg.Machine.Procs)
		w.push(event{time: 1e9, seq: 1, kind: evInject})
	})
	mustPanic("into the past", func() {
		var w wheel
		w.reset(cfg, cfg.Machine.Procs)
		w.push(event{time: 8, seq: 1, kind: evInject})
		w.pop()
		w.push(event{time: 0, seq: 2, kind: evInject})
	})
	mustPanic("pop empty", func() {
		var w wheel
		w.reset(cfg, cfg.Machine.Procs)
		w.pop()
	})
}

// TestEngineReuseZeroAllocs pins the cross-run reuse contract: after one
// warm-up run, re-running the same shape on the same Engine performs zero
// allocations — the wheel buckets, server rings, processor slice and
// bookkeeping arrays are all retained and re-armed in place.
func TestEngineReuseZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement under -short")
	}
	m := core.J90()
	pt := core.NewPattern(patterns.Uniform(1<<13, 1<<30, rng.New(7)), m.Procs)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"open-loop", Config{Machine: m}},
		{"windowed", Config{Machine: m, Window: 8}},
		{"sections", Config{Machine: m, UseSections: true}},
		{"dram", Config{Machine: m, Bank: BankConfig{Discipline: DRAM, Groups: 16, GroupGap: 0.5}}},
		{"regulated", Config{Machine: m, Bank: BankConfig{Discipline: Regulated}}},
		{"gpu", Config{Machine: m, Bank: BankConfig{Discipline: GPUShared}}},
	} {
		e := NewEngine()
		if _, err := e.Run(context.Background(), tc.cfg, pt); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := e.Run(context.Background(), tc.cfg, pt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per re-run on a warm engine, want 0", tc.name, allocs)
		}
	}
}

// TestEngineReuseAcrossShapes verifies that reusing one Engine across
// different machine shapes and feature sets — growing, shrinking,
// toggling caching and sections, surviving a cancelled run — always
// produces results byte-identical to a fresh engine's.
func TestEngineReuseAcrossShapes(t *testing.T) {
	g := rng.New(99)
	e := NewEngine()
	shapes := []Config{
		{Machine: core.Machine{Procs: 8, Banks: 64, D: 6, G: 1, L: 8}},
		{Machine: core.Machine{Procs: 2, Banks: 8, D: 3, G: 1, L: 0}, Window: 4},
		{Machine: core.Machine{Procs: 16, Banks: 256, D: 14, G: 1, L: 16, Sections: 8, SectionGap: 0.5}, UseSections: true},
		{Machine: core.Machine{Procs: 4, Banks: 32, D: 6, G: 2, L: 4}, Bank: BankConfig{CacheLines: 2}},
		{Machine: core.Machine{Procs: 8, Banks: 64, D: 6, G: 1, L: 8}}, // back to the first shape, caching now off
	}
	for round := 0; round < 3; round++ {
		for i, cfg := range shapes {
			pt := core.NewPattern(patterns.Uniform(1<<10, 1<<20, g.Split()), cfg.Machine.Procs)
			got, err := e.Run(context.Background(), cfg, pt)
			if err != nil {
				t.Fatal(err)
			}
			var fresh Engine
			want, err := fresh.Run(context.Background(), cfg, pt)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("round %d shape %d: reused engine %+v, fresh engine %+v", round, i, got, want)
			}
		}
		// Abandon a run mid-flight so the next reset must clear stale
		// wheel contents; a cancelled context leaves events queued.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		pt := core.NewPattern(patterns.Uniform(1<<12, 1<<20, g.Split()), shapes[0].Machine.Procs)
		if _, err := e.Run(ctx, shapes[0], pt); err == nil {
			t.Fatal("cancelled run unexpectedly succeeded")
		}
	}
}
