package surrogate

import (
	"bytes"
	"flag"
	"math"
	"os"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false,
	"regenerate testdata/envelope.json and docs/surrogate_envelope.md from a fresh sweep")

// Acceptance thresholds the surrogate must meet in every swept regime.
// These are the contract the router's auto mode relies on; tightening
// the model may shrink the pin, but it must never cross these.
const (
	acceptMedianRelErr = 0.10
	acceptP99RelErr    = 0.25
)

// TestEnvelopePin re-measures the error envelope against the event
// simulator and requires it to match the committed pin exactly (the
// sweep is fully seeded, so any drift means the model or the simulator
// changed) and to stay inside the acceptance thresholds. Run with
// -update after an intentional model change to re-pin and regenerate
// the docs table.
func TestEnvelopePin(t *testing.T) {
	if testing.Short() {
		t.Skip("envelope sweep runs a few hundred simulations")
	}
	env, err := MeasureEnvelope(DefaultSweep())
	if err != nil {
		t.Fatalf("MeasureEnvelope: %v", err)
	}
	if *update {
		if err := os.WriteFile("testdata/envelope.json", env.MarshalCanonical(), 0o644); err != nil {
			t.Fatalf("write pin: %v", err)
		}
		doc := "# Surrogate error envelope\n\n" +
			"Relative error of the closed-form surrogate (internal/surrogate)\n" +
			"against the event simulator over the seeded validation sweep\n" +
			"(`surrogate.DefaultSweep`, " + strconv.Itoa(env.Points) + " simulations at n=2048).\n" +
			"Regenerate with:\n\n" +
			"    go test ./internal/surrogate -run TestEnvelopePin -update\n\n" +
			env.MarkdownTable() + "\n" +
			"The pin in `internal/surrogate/testdata/envelope.json` fails the\n" +
			"tier-1 tests if these numbers drift; the acceptance ceiling is\n" +
			"median <= 10% and p99 <= 25% per regime.\n"
		if err := os.WriteFile("../../docs/surrogate_envelope.md", []byte(doc), 0o644); err != nil {
			t.Fatalf("write docs table: %v", err)
		}
		t.Logf("re-pinned %d points across %d regimes", env.Points, len(env.Regimes))
	}

	// The measurement must reproduce the committed pin file bit for bit:
	// every simulator path is byte-identical to the event engine, so the
	// route sim.RunContext picks changes nothing — not even the last ulp
	// of a summarized float.
	if !*update && !bytes.Equal(env.MarshalCanonical(), pinnedJSON) {
		t.Errorf("measured envelope differs byte-for-byte from testdata/envelope.json")
	}

	pin := Pinned()
	if env.Points != pin.Points {
		t.Errorf("sweep size %d != pinned %d (run -update after changing DefaultSweep)",
			env.Points, pin.Points)
	}
	for r, got := range env.Regimes {
		want, ok := pin.Regimes[r]
		if !ok {
			t.Errorf("regime %s measured but not pinned", r)
			continue
		}
		if got.Points != want.Points {
			t.Errorf("%s: %d points, pinned %d", r, got.Points, want.Points)
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"median", got.MedianRelErr, want.MedianRelErr},
			{"p99", got.P99RelErr, want.P99RelErr},
			{"max", got.MaxRelErr, want.MaxRelErr},
		} {
			if math.Abs(c.got-c.want) > 1e-9 {
				t.Errorf("%s: %s rel err %.6f, pinned %.6f — model accuracy drifted; "+
					"re-pin with -update only if intentional", r, c.name, c.got, c.want)
			}
		}
		// The acceptance ceiling applies to the fresh measurement, so a
		// stale pin cannot mask a regression.
		if got.MedianRelErr > acceptMedianRelErr {
			t.Errorf("%s: median rel err %.3f exceeds acceptance %.2f",
				r, got.MedianRelErr, acceptMedianRelErr)
		}
		if got.P99RelErr > acceptP99RelErr {
			t.Errorf("%s: p99 rel err %.3f exceeds acceptance %.2f",
				r, got.P99RelErr, acceptP99RelErr)
		}
	}
	for r := range pin.Regimes {
		if _, ok := env.Regimes[r]; !ok {
			t.Errorf("regime %s pinned but no longer swept", r)
		}
	}
}
