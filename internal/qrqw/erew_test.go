package qrqw

import (
	"math"
	"testing"

	"dxbsp/internal/rng"
)

func TestEREWProgramHasNoContention(t *testing.T) {
	prog := EREWProgram(256, 4, rng.New(1))
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if prog.MaxContention() != 1 {
		t.Fatal("EREWProgram produced contention")
	}
	for i, s := range prog.Steps {
		if s.kappa != 1 {
			t.Errorf("step %d contention %d", i, s.kappa)
		}
	}
}

func TestEmulateEREWRejectsContention(t *testing.T) {
	m := emulationMachine(128)
	con := ContentionProgram(64, 1, 8, 1, rng.New(3))
	if _, err := EmulateEREW(con, m, nil, Analytic); err == nil {
		t.Error("contended program accepted by EmulateEREW")
	}
}

func TestEmulateEREWWorkPreserving(t *testing.T) {
	// x = 16 >= d = 8: EREW emulation with high slackness is
	// work-preserving within a small constant.
	m := emulationMachine(128)
	prog := EREWProgram(8192, 3, rng.New(4))
	res, err := EmulateEREW(prog, m, hashedMap(m.Banks, 5), Analytic)
	if err != nil {
		t.Fatal(err)
	}
	if over := res.WorkOverhead(); over > 3 {
		t.Errorf("EREW work overhead %v", over)
	}
}

func TestMinSlacknessEREWBehaviour(t *testing.T) {
	m := emulationMachine(128)
	if s := MinSlacknessEREW(m, 1); !math.IsInf(s, 1) {
		t.Error("alpha=1 should be impossible")
	}
	s2 := MinSlacknessEREW(m, 2)
	s4 := MinSlacknessEREW(m, 4)
	if math.IsInf(s2, 1) || s2 <= 0 {
		t.Fatalf("s(2) = %v", s2)
	}
	if s4 >= s2 {
		t.Errorf("slackness should fall with alpha: %v vs %v", s2, s4)
	}
	// More expansion (same target multiple of the mean): less slackness
	// needed, because the per-bank mean load s/x carries the union bound.
	big := emulationMachine(1024)
	if sBig := MinSlacknessEREW(big, 2); sBig <= s2 {
		// The bound is 2x·ln(xp)/h(1): linear in x, so MORE banks need
		// MORE virtual parallelism to keep every bank loaded — that is
		// the slackness direction the literature states (enough
		// parallelism that each bank receives multiple requests).
		t.Errorf("slackness should grow with banks: x=16 %v vs x=128 %v", s2, sBig)
	}
}

func TestEREWVsQRQWEmulationCost(t *testing.T) {
	// On the same machine with the same v, an EREW program of the same
	// size is never costlier than a contended program.
	m := emulationMachine(128)
	v := 4096
	erew := EREWProgram(v, 2, rng.New(6))
	qr := ContentionProgram(v, 2, 512, uint64(m.Banks+1), rng.New(6))
	bm := hashedMap(m.Banks, 7)
	re, err := Emulate(erew, m, bm, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	rq, err := Emulate(qr, m, bm, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	if re.Cycles > rq.Cycles {
		t.Errorf("EREW %v costlier than contended %v", re.Cycles, rq.Cycles)
	}
}
