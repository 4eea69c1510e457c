package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"dxbsp/internal/core"
)

func TestNormalizeAppliesDefaults(t *testing.T) {
	m := core.Machine{Name: "n", Procs: 4, Banks: 32, D: 4, G: 1, L: 10}
	c := Config{Machine: m}.Normalize()
	bm, ok := c.BankMap.(core.InterleaveMap)
	if !ok || bm.Banks != m.Banks {
		t.Errorf("BankMap = %#v, want InterleaveMap{%d}", c.BankMap, m.Banks)
	}
	if c.NetDelay != m.L/2 {
		t.Errorf("NetDelay = %g, want %g", c.NetDelay, m.L/2)
	}
	// Bank-cache defaults apply only when caching is on.
	if c.Bank.HitDelay != 0 || c.Bank.RowWords != 0 {
		t.Errorf("cache knobs defaulted while caching off: %+v", c)
	}
	// Turning row buffers on defaults the hit delay to 1 and rows to 32
	// words.
	cc := Config{Machine: m, Bank: BankConfig{CacheLines: 2}}.Normalize()
	if cc.Bank.CacheLines != 2 || cc.Bank.HitDelay != 1 || cc.Bank.RowWords != 32 {
		t.Errorf("cache defaults = %+v, want lines 2, hit 1, rows 32", cc.Bank)
	}
}

func TestNormalizeKeepsExplicitValues(t *testing.T) {
	m := core.Machine{Name: "n", Procs: 4, Banks: 32, D: 4, G: 1, L: 10}
	c := Config{Machine: m, NetDelay: 3, Bank: BankConfig{CacheLines: 2, HitDelay: 2, RowWords: 1 << 8}}.Normalize()
	if c.NetDelay != 3 || c.Bank.HitDelay != 2 || c.Bank.RowWords != 1<<8 {
		t.Errorf("Normalize overwrote explicit values: %+v", c)
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	m := core.Machine{Name: "n", Procs: 4, Banks: 32, D: 4, G: 1, L: 10}
	once := Config{Machine: m, Bank: BankConfig{CacheLines: 1}}.Normalize()
	if twice := once.Normalize(); twice != once {
		t.Errorf("Normalize not idempotent:\nonce:  %+v\ntwice: %+v", once, twice)
	}
}

func TestValidateRejectsBadKnobs(t *testing.T) {
	m := core.Machine{Name: "n", Procs: 4, Banks: 32, D: 4, G: 1, L: 10}
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"negative window", Config{Machine: m, Window: -1}, "Window"},
		{"negative net delay", Config{Machine: m, NetDelay: -2}, "NetDelay"},
		{"negative cache lines", Config{Machine: m, Bank: BankConfig{CacheLines: -1}}, "Bank.CacheLines"},
		{"negative hit delay", Config{Machine: m, Bank: BankConfig{CacheLines: 1, HitDelay: -1}}, "Bank.HitDelay"},
		{"bad row words", Config{Machine: m, Bank: BankConfig{CacheLines: 1, RowWords: 3}}, "Bank.RowWords"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Normalize().Validate()
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Errorf("Field = %q, want %q", ce.Field, tc.field)
			}
			if !strings.Contains(ce.Error(), tc.field) {
				t.Errorf("message %q does not name the field", ce.Error())
			}
		})
	}
}

// Non-finite delays must fail validation with a typed error naming the
// field. They used to pass the sign checks (NaN compares false, +Inf is
// positive): a NaN D simulated to 0 cycles on the open loop and panicked
// the wheel under a window, and NaN bank delays were accepted silently.
func TestRunRejectsNonFiniteDelays(t *testing.T) {
	m := core.Machine{Name: "n", Procs: 4, Banks: 32, D: 4, G: 1, L: 10}
	pt := core.NewPattern(seqAddrs(8), 2)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tc := range []struct {
			field string
			cfg   Config
		}{
			{"D", Config{Machine: core.Machine{Name: "n", Procs: 4, Banks: 32, D: v, G: 1}}},
			{"D", Config{Machine: core.Machine{Name: "n", Procs: 4, Banks: 32, D: v, G: 1}, Window: 2}},
			{"G", Config{Machine: core.Machine{Name: "n", Procs: 4, Banks: 32, D: 4, G: v}}},
			{"L", Config{Machine: core.Machine{Name: "n", Procs: 4, Banks: 32, D: 4, G: 1, L: v}}},
			{"SectionGap", Config{Machine: core.Machine{Name: "n", Procs: 4, Banks: 32, D: 4, G: 1, Sections: 2, SectionGap: v}, UseSections: true}},
			{"NetDelay", Config{Machine: m, NetDelay: v}},
			{"Bank.HitDelay", Config{Machine: m, Bank: BankConfig{CacheLines: 1, HitDelay: v}}},
			{"Bank.MissDelay", Config{Machine: m, Bank: BankConfig{Discipline: DRAM, MissDelay: v}}},
			{"Bank.RegWindow", Config{Machine: m, Bank: BankConfig{Discipline: Regulated, RegWindow: v}}},
		} {
			name := fmt.Sprintf("%s=%g", tc.field, v)
			err := requireSameRunError(t, name, tc.cfg, pt)
			var ce *ConfigError
			var me *core.MachineError
			switch {
			case errors.As(err, &ce) && ce.Field == tc.field:
			case errors.As(err, &me) && me.Field == tc.field:
			default:
				t.Errorf("%s: Run error = %v, want a typed error on %s", name, err, tc.field)
			}
			if _, err := RunReference(tc.cfg, pt); err == nil {
				t.Errorf("%s: RunReference accepted it", name)
			}
		}
	}
}

// Run must reject what Validate rejects, as a typed error. Run routes
// lockstep-eligible configs to the lockstep walk and the rest to the
// event engine; a caller must see the event engine's errors on either
// path.
func TestRunReturnsConfigError(t *testing.T) {
	m := core.Machine{Name: "n", Procs: 4, Banks: 32, D: 4, G: 1, L: 10}
	pt := core.NewPattern(seqAddrs(8), 2)
	for _, tc := range []struct {
		name  string
		cfg   Config
		pt    core.Pattern
		field string // "" when the error is not a *ConfigError
	}{
		{"negative window", Config{Machine: m, Window: -3}, pt, "Window"},
		{"negative net delay", Config{Machine: m, NetDelay: -2}, pt, "NetDelay"},
		{"negative cache lines", Config{Machine: m, Bank: BankConfig{CacheLines: -1}}, pt, "Bank.CacheLines"},
		{"bank map size", Config{Machine: m, BankMap: core.InterleaveMap{Banks: 16}}, pt, "BankMap"},
		{"dram miss delay", Config{Machine: m, Bank: BankConfig{Discipline: DRAM, MissDelay: -1}}, pt, "Bank.MissDelay"},
		{"dram two rows", Config{Machine: m, Bank: BankConfig{Discipline: DRAM, CacheLines: 2}}, pt, "Bank.CacheLines"},
		{"regulated budget", Config{Machine: m, Bank: BankConfig{Discipline: Regulated, RegBudget: -1}}, pt, "Bank.RegBudget"},
		{"bad machine", Config{Machine: core.Machine{Name: "z", Procs: 4, Banks: 0, D: 4, G: 1}}, pt, ""},
		{"too many streams", Config{Machine: m}, core.NewPattern(seqAddrs(8), 8), ""},
	} {
		err := requireSameRunError(t, tc.name, tc.cfg, tc.pt)
		var ce *ConfigError
		if tc.field != "" && (!errors.As(err, &ce) || ce.Field != tc.field) {
			t.Errorf("%s: Run error = %v, want ConfigError on %s", tc.name, err, tc.field)
		}
	}
}

// requireSameRunError fails unless Run and the event engine both reject
// cfg with the identical error string, and returns Run's error.
func requireSameRunError(t *testing.T, name string, cfg Config, pt core.Pattern) error {
	t.Helper()
	_, runErr := Run(cfg, pt)
	_, evErr := NewEngine().Run(context.Background(), cfg, pt)
	switch {
	case runErr == nil || evErr == nil:
		t.Errorf("%s: Run error %v, event engine error %v; want both to fail", name, runErr, evErr)
	case runErr.Error() != evErr.Error():
		t.Errorf("%s: Run error %q differs from event engine error %q", name, runErr, evErr)
	}
	return runErr
}
