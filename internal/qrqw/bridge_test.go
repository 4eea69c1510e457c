package qrqw

import (
	"slices"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

func TestProgramFromTraces(t *testing.T) {
	steps := [][]uint64{
		{1, 2, 3, 1, 1},
		{7, 7},
		{},
	}
	prog := ProgramFromTraces(steps, 4)
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(prog.Steps) != 3 {
		t.Fatalf("steps = %d", len(prog.Steps))
	}
	if prog.TotalRequests() != 7 {
		t.Errorf("TotalRequests = %d", prog.TotalRequests())
	}
	ks := prog.StepContentions()
	if ks[0] != 3 || ks[1] != 2 || ks[2] != 0 {
		t.Errorf("StepContentions = %v", ks)
	}
	if prog.MaxContention() != 3 {
		t.Errorf("MaxContention = %d", prog.MaxContention())
	}
	// Round-robin: vp0 gets addrs 1 and 1 in step 0.
	if got := prog.Steps[0].vp(0); len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Errorf("vp0 accesses = %v", got)
	}
}

func TestProgramFromTracesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ProgramFromTraces(nil, 0)
}

func TestBridgedProgramEmulates(t *testing.T) {
	// A captured trace (here synthesized) must flow through Emulate.
	g := rng.New(1)
	var steps [][]uint64
	for s := 0; s < 3; s++ {
		addrs := make([]uint64, 1024)
		for i := range addrs {
			addrs[i] = g.Uint64n(1 << 20)
		}
		steps = append(steps, addrs)
	}
	prog := ProgramFromTraces(steps, 1024)
	m := core.Machine{Name: "b", Procs: 8, Banks: 128, D: 8, G: 1, L: 32}
	res, err := Emulate(prog, m, nil, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || len(res.PerStep) != 3 {
		t.Errorf("result = %+v", res)
	}
}

// ProgramFromTraces's flat steps hold exactly the round-robin lists
// (virtual processor i gets the i-th, (i+V)-th, ... addresses), for
// traces shorter and longer than V and of repeated lengths, whose steps
// share offsets.
func TestProgramFromTracesMatchesRoundRobin(t *testing.T) {
	g := rng.New(4)
	traces := randomTraces(g, 30, 100)
	traces = append(traces, traces[0][:len(traces[0])/2], nil, traces[3])
	for _, v := range []int{1, 7, 64, 250} {
		prog := ProgramFromTraces(traces, v)
		if err := prog.Validate(); err != nil {
			t.Fatal(err)
		}
		for s, addrs := range traces {
			lists := make([][]uint64, v)
			for i, a := range addrs {
				lists[i%v] = append(lists[i%v], a)
			}
			want, got := NewStep(lists), prog.Steps[s]
			for i := range lists {
				if !slices.Equal(got.vp(i), lists[i]) {
					t.Fatalf("v=%d step %d vp %d: %v, want %v", v, s, i, got.vp(i), lists[i])
				}
			}
			if got.MaxOps() != want.MaxOps() || got.Contention() != want.Contention() || got.Requests() != len(addrs) {
				t.Errorf("v=%d step %d: ops, κ, n = %d, %d, %d; want %d, %d, %d", v, s,
					got.MaxOps(), got.Contention(), got.Requests(), want.MaxOps(), want.Contention(), len(addrs))
			}
		}
	}
}
