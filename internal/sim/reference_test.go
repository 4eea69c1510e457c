package sim

import (
	"context"
	"testing"
	"testing/quick"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

// Cross-validation: the engines and the per-clock reference must agree
// exactly.

func TestReferenceAgreesWithEngine(t *testing.T) {
	m := core.Machine{Name: "xv", Procs: 4, Banks: 32, D: 5, G: 1, L: 8}
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%300) + 1
		g := rng.New(seed)
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = g.Uint64n(256)
		}
		pt := core.NewPattern(addrs, m.Procs)
		ev, err := Run(Config{Machine: m}, pt)
		if err != nil {
			return false
		}
		ref, err := RunReference(Config{Machine: m}, pt)
		if err != nil {
			return false
		}
		return ev == ref
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReferenceAgreesOnCanonicalPatterns(t *testing.T) {
	m := core.Machine{Name: "xv", Procs: 8, Banks: 64, D: 6, G: 1, L: 0}
	cases := map[string][]uint64{
		"allsame": make([]uint64, 200), // zeros
		"stride":  {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		"onebank": {0, 64, 128, 192, 256, 320},
	}
	for name, addrs := range cases {
		pt := core.NewPattern(addrs, m.Procs)
		ev, err := Run(Config{Machine: m}, pt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := RunReference(Config{Machine: m}, pt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ev != ref {
			t.Errorf("%s: engine %+v vs reference %+v", name, ev, ref)
		}
	}
}

// The oracle covers every config the engines serve except delays that
// are not a multiple of 1/16 cycle.
func TestReferenceRejectsUnsupported(t *testing.T) {
	m := core.Machine{Name: "xv", Procs: 2, Banks: 8, D: 2, G: 1, L: 0}
	pt := core.NewPattern([]uint64{1, 2}, 2)
	for name, cfg := range map[string]Config{
		"thirds":         {Machine: core.Machine{Name: "f", Procs: 2, Banks: 8, D: 2.0 / 3, G: 1, L: 0}},
		"1/32 gap":       {Machine: core.Machine{Name: "f", Procs: 2, Banks: 8, D: 2, G: 1.0 / 32, L: 0}},
		"1/32 hit":       {Machine: m, Bank: BankConfig{CacheLines: 2, HitDelay: 1.0 / 32}},
		"1/32 section":   {Machine: core.Machine{Name: "s", Procs: 2, Banks: 8, D: 2, G: 1, Sections: 2, SectionGap: 0.03125}, UseSections: true},
		"1/32 net delay": {Machine: m, NetDelay: 0.03125},
	} {
		if _, err := RunReference(cfg, pt); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// checkHandWorked runs cfg on the reference, Run and the event engine and
// requires all three to produce want exactly.
func checkHandWorked(t *testing.T, cfg Config, pt core.Pattern, want Result) {
	t.Helper()
	ref, err := RunReference(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEngine().Run(context.Background(), cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]Result{"reference": ref, "Run": run, "event engine": ev} {
		if got != want {
			t.Errorf("%s:\n got  %+v\n want %+v", name, got, want)
		}
	}
}

// Window 1 on one processor: each request waits for the previous
// response. Addresses 0, 1, 2 hit distinct banks, D 2, NetDelay 3:
//
//	req 1: inject 0, bank 3..5, response 8
//	req 2: inject at 1 blocks; the response at 8 unblocks it, so it
//	       injects at 8, bank 11..13, response 16
//	req 3: blocks at 9, injects at 16, bank 19..21, response 24
//
// Cycles 24, BankBusy 3·2 = 6, no queueing.
func TestReferenceWindowBlock(t *testing.T) {
	m := core.Machine{Name: "w", Procs: 1, Banks: 4, D: 2, G: 1}
	checkHandWorked(t, Config{Machine: m, Window: 1, NetDelay: 3}, core.NewPattern([]uint64{0, 1, 2}, 1),
		Result{Cycles: 24, Requests: 3, BankServices: 3, MaxBankServed: 1, BankBusy: 6})
}

// Two processors send one request each to banks 0 and 1, which share
// section 0 (4 banks, 2 sections). SectionGap 2, D 1, NetDelay 1:
//
//	both reach section 0 at 1; proc 0's request (lower seq) starts,
//	proc 1's queues (MaxSectionQueue 1)
//	3: section done, proc 0's request reaches bank 0 (3..4, response 5);
//	   proc 1's starts in the section
//	5: it reaches bank 1 (5..6), response 7
//
// Cycles 7, BankBusy 2.
func TestReferenceSectionQueue(t *testing.T) {
	m := core.Machine{Name: "s", Procs: 2, Banks: 4, D: 1, G: 1, Sections: 2, SectionGap: 2}
	checkHandWorked(t, Config{Machine: m, UseSections: true, NetDelay: 1}, core.NewPattern([]uint64{0, 1}, 2),
		Result{Cycles: 7, Requests: 2, BankServices: 2, MaxBankServed: 1, MaxSectionQueue: 1, BankBusy: 2})
}

// A section reads its busy state when a request arrives, not when it is
// injected. One processor sends addresses 0 and 2 (both bank 0, section
// 0), G 5, NetDelay 10, SectionGap 1, D 1:
//
//	req 1: section 10..11, bank 11..12, response 22
//	req 2: injected at 5, reaches the idle section at 15, bank 16..17,
//	       response 27
//
// Without sections the run takes 26 (the section slot adds 1). An engine
// that routes req 2 into the section at injection time sees the section
// still busy with req 1, queues it, starts it at 11 — before it has
// arrived — and finishes in 23.
func TestSectionArrivalIsCausal(t *testing.T) {
	m := core.Machine{Name: "c", Procs: 1, Banks: 2, D: 1, G: 5, Sections: 2, SectionGap: 1}
	checkHandWorked(t, Config{Machine: m, UseSections: true, NetDelay: 10}, core.NewPattern([]uint64{0, 2}, 1),
		Result{Cycles: 27, Requests: 2, BankServices: 2, MaxBankServed: 2, BankBusy: 2})
}

// Combining answers every queued request for the serving address. One
// processor, one bank, D 4, G 1, NetDelay 0, addresses 5, 5, 5, 7:
//
//	0: req 1 (addr 5) starts on arrival, 0..4 — nothing queued to combine
//	1, 2, 3: reqs 2, 3 (addr 5) and 4 (addr 7) queue (MaxBankQueue 3)
//	4: req 2 starts, 4..8, and answers req 3 with it
//	8: req 4 starts, 8..12
//
// Cycles 12, 3 services of 4 cycles (BankBusy 12) for 4 requests, all
// served by the one bank (MaxBankServed 4).
func TestReferenceCombining(t *testing.T) {
	m := core.Machine{Name: "c", Procs: 1, Banks: 1, D: 4, G: 1}
	checkHandWorked(t, Config{Machine: m, Combining: true}, core.NewPattern([]uint64{5, 5, 5, 7}, 1),
		Result{Cycles: 12, Requests: 4, BankServices: 3, MaxBankServed: 4, MaxBankQueue: 3, BankBusy: 12})
}

// DRAM with one bank group over 4 banks and GroupGap 3: service starts in
// the group are at least 3 apart. D 2 (so MissDelay 2), HitDelay 1, one
// open row of 32 words, G 1, NetDelay 0. Proc 0 sends 0 then 4 (both bank
// 0, row 0); proc 1 sends 1 (bank 1):
//
//	0: proc 0's 0 misses, starts 0..2 (group ready at 3); proc 1's 1
//	   misses, waits for the group, starts 3..5 (ready at 6)
//	1: proc 0's 4 queues at bank 0 (MaxBankQueue 1)
//	2: bank 0 frees; 4 hits the open row but waits for the group:
//	   starts 6..7
//
// Cycles 7, BankBusy 2+2+1 = 5, 1 hit, 2 conflicts; bank 0 served 2.
func TestReferenceGroupGap(t *testing.T) {
	m := core.Machine{Name: "g", Procs: 2, Banks: 4, D: 2, G: 1}
	cfg := Config{Machine: m, Bank: BankConfig{Discipline: DRAM, Groups: 1, GroupGap: 3}}
	checkHandWorked(t, cfg, core.Pattern{PerProc: [][]uint64{{0, 4}, {1}}},
		Result{Cycles: 7, Requests: 3, BankServices: 3, MaxBankServed: 2, MaxBankQueue: 1,
			BankBusy: 5, RowHits: 1, RowConflicts: 2})
}

func TestReferenceEmpty(t *testing.T) {
	m := core.Machine{Name: "xv", Procs: 2, Banks: 8, D: 2, G: 1, L: 0}
	r, err := RunReference(Config{Machine: m}, core.NewPattern(nil, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 0 || r.Requests != 0 {
		t.Errorf("empty = %+v", r)
	}
}
