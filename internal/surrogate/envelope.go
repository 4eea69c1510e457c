// Error-envelope methodology: the surrogate is only as good as its
// measured distance from the oracle. MeasureEnvelope (sweep_test.go)
// replays a fixed, seeded sweep of eligible configurations through both
// the event simulator and the closed form, buckets the relative errors
// by regime, and summarizes each bucket. The result is pinned in
// testdata/envelope.json (embedded below) and published as a table
// under docs/ — tests fail if the measured envelope drifts from the pin
// (accuracy regressions are caught exactly like perf regressions), and
// the router reports the pinned bound for the regimes it routes.

package surrogate

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sync"

	"dxbsp/internal/sim"
)

// Regime buckets a configuration by the model terms that dominate it:
// discipline (fifo, regulated) × loop (open, windowed) × bandwidth
// match (matched when x >= d/g, else starved). Errors cluster by these
// axes — the open/matched bucket is near-exact while windowed/starved
// leans on the mean-value iteration — so the envelope pins each bucket
// separately.
func Regime(cfg sim.Config) string {
	c := cfg.Normalize()
	var disc string
	switch c.Bank.Discipline {
	case sim.Regulated:
		disc = "regulated"
	case sim.DRAM:
		disc = "dram"
	case sim.GPUShared:
		disc = "gpu"
	default:
		disc = "fifo"
	}
	mode := "open"
	if c.Window > 0 {
		mode = "windowed"
	}
	load := "matched"
	if !c.Machine.BandwidthMatched() {
		load = "starved"
	}
	return disc + "/" + mode + "/" + load
}

// RegimeStats summarizes the surrogate's relative error |T̂-T|/T
// against the simulator over one regime's validation points.
type RegimeStats struct {
	Points       int     `json:"points"`
	MedianRelErr float64 `json:"median"`
	P99RelErr    float64 `json:"p99"`
	MaxRelErr    float64 `json:"max"`
}

// Envelope is the full pinned error envelope.
type Envelope struct {
	Points  int                    `json:"points"`
	Regimes map[string]RegimeStats `json:"regimes"`
}

//go:embed testdata/envelope.json
var pinnedJSON []byte

var pinnedOnce = sync.OnceValue(func() Envelope {
	var e Envelope
	if err := json.Unmarshal(pinnedJSON, &e); err != nil {
		panic(fmt.Sprintf("surrogate: corrupt embedded envelope: %v", err))
	}
	return e
})

// Pinned returns the committed error envelope the tests enforce and the
// router reports.
func Pinned() Envelope { return pinnedOnce() }

// MaxRelErr returns the pinned maximum relative error for cfg's regime,
// or the worst bound across all regimes when the regime was not swept.
func MaxRelErr(cfg sim.Config) float64 {
	e := Pinned()
	if st, ok := e.Regimes[Regime(cfg)]; ok {
		return st.MaxRelErr
	}
	worst := 0.0
	for _, st := range e.Regimes {
		if st.MaxRelErr > worst {
			worst = st.MaxRelErr
		}
	}
	return worst
}
