package experiments

import (
	"context"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/qrqw"
	"dxbsp/internal/tablefmt"
)

// pointRows runs every point of experiment id at cfg and returns the raw
// cells of its rows in sweep order.
func pointRows(t *testing.T, id string, cfg Config) [][]interface{} {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	var rows [][]interface{}
	for _, pt := range e.Points(cfg) {
		r, err := e.RunPoint(context.Background(), cfg, pt)
		if err != nil {
			t.Fatalf("%s/%s: %v", id, pt.Label, err)
		}
		rows = append(rows, r.Value.(tableRows)...)
	}
	return rows
}

// F8 (Theorem 5.1, x <= d): at every expansion the measured work overhead
// meets the inevitable d/x factor and stays within 2x of it, and the
// slowdown stays within the theorem's bound with the same c = 2. At quick
// scale the overhead ratio runs 1.17 (x=1) to 1.84 (x=16), and the
// slowdown over the c = 1 bound 1.15 (x=1) to 1.48 (x=16).
func TestF8OverheadTracksDOverX(t *testing.T) {
	rows := pointRows(t, "F8", QuickConfig())
	if len(rows) != 5 {
		t.Fatalf("F8: %d rows, want one per x in 1..16", len(rows))
	}
	for _, row := range rows {
		x, over, bound := row[0].(int), row[1].(float64), row[2].(float64)
		slow, vp := row[3].(float64), row[4].(float64)
		if over < bound || over > 2*bound {
			t.Errorf("F8 x=%d: work overhead %.3f outside [d/x, 2d/x] = [%g, %g]", x, over, bound, 2*bound)
		}
		m := core.Machine{Name: "emu", Procs: 8, Banks: 8 * x, D: 16, G: 1, L: 64}
		if thm := 2 * qrqw.SlowdownBoundLowExpansion(m, vp); slow > thm {
			t.Errorf("F8 x=%d: slowdown %.1f above the Theorem 5.1 bound %.1f (c = 2)", x, slow, thm)
		}
	}
}

// F9 (Theorem 5.2, x >= d): the slowdown never beats the work-optimal v/p,
// and below d = x the emulation is work-preserving within alpha = 2. At
// quick scale the overhead is 1.25 up to d = 16 and 1.625 at d = 32. Where
// the slackness v/p meets the theorem's minimum (d <= 16 at quick scale),
// the slowdown stays under its per-step time bound: 320 against 576.
func TestF9WorkPreservingBelowX(t *testing.T) {
	const x, alpha = 64, 2.0
	rows := pointRows(t, "F9", QuickConfig())
	if len(rows) != 6 {
		t.Fatalf("F9: %d rows, want one per d in 2..64", len(rows))
	}
	covered := 0
	for _, row := range rows {
		d, slow, vp, over := row[0].(float64), row[1].(float64), row[2].(float64), row[3].(float64)
		if slow < vp {
			t.Errorf("F9 d=%g: slowdown %.1f below v/p = %g", d, slow, vp)
		}
		if d < x && over > alpha {
			t.Errorf("F9 d=%g < x=%d: work overhead %.3f above alpha = %g", d, x, over, alpha)
		}
		m := core.Machine{Name: "emu", Procs: 8, Banks: 8 * x, D: d, G: 1, L: 64}
		if vp < qrqw.MinSlacknessWorkPreserving(m, alpha) {
			continue
		}
		covered++
		if thm := qrqw.StepTimeBoundHighExpansion(m, vp, alpha, 1); slow > thm {
			t.Errorf("F9 d=%g: slowdown %.1f above the Theorem 5.2 bound %.1f", d, slow, thm)
		}
	}
	if covered == 0 {
		t.Error("F9: no row has the slackness Theorem 5.2 needs")
	}
}

// X11: the re-emulated connected-components trace slows down as the bank
// delay rises at fixed expansion (x = 64: d = 14 → 64, 15.0 → 65.7) and as
// expansion falls at fixed delay (d = 14: x = 64 → 4, 15.0 → 16.8).
func TestX11SlowdownFollowsDAndX(t *testing.T) {
	var b strings.Builder
	mustRunID(t, "X11", QuickConfig()).(*tablefmt.Table).RenderCSV(&b)
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	slow := map[string]float64{}
	for _, rec := range recs[1:] {
		if slow[rec[0]], err = strconv.ParseFloat(rec[2], 64); err != nil {
			t.Fatalf("%s: %v", rec[0], err)
		}
	}
	if len(slow) != 4 {
		t.Fatalf("X11 rows %v, want 4 machines", slow)
	}
	if lo, hi := slow["d=14 x=64"], slow["d=64 x=64"]; !(lo < hi) {
		t.Errorf("x=64: slowdown %.3f at d=14 not below %.3f at d=64", lo, hi)
	}
	if wide, narrow := slow["d=14 x=64"], slow["d=14 x=4"]; !(wide < narrow) {
		t.Errorf("d=14: slowdown %.3f at x=64 not below %.3f at x=4", wide, narrow)
	}
}
