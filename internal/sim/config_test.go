package sim

import (
	"context"
	"errors"
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
	// The deprecated HS93 fields fold into the Bank sub-config, with the
	// same defaults the old fields had (hit delay 1, 32-word rows).
	cc := Config{Machine: m, BankCacheLines: 2}.Normalize()
	if cc.Bank.CacheLines != 2 || cc.Bank.HitDelay != 1 || cc.Bank.RowWords != 32 {
		t.Errorf("cache defaults = %+v, want lines 2, hit 1, rows 32", cc.Bank)
	}
}

func TestNormalizeKeepsExplicitValues(t *testing.T) {
	m := core.Machine{Name: "n", Procs: 4, Banks: 32, D: 4, G: 1, L: 10}
	c := Config{Machine: m, NetDelay: 3, BankCacheLines: 2, BankHitDelay: 2, BankRowShift: 8}.Normalize()
	if c.NetDelay != 3 || c.Bank.HitDelay != 2 || c.Bank.RowWords != 1<<8 {
		t.Errorf("Normalize overwrote explicit values: %+v", c)
	}
	// An explicit Bank sub-config wins over the deprecated fields.
	d := Config{Machine: m, BankCacheLines: 4, BankHitDelay: 3,
		Bank: BankConfig{CacheLines: 1, HitDelay: 2, RowWords: 1}}.Normalize()
	if d.Bank.CacheLines != 1 || d.Bank.HitDelay != 2 || d.Bank.RowWords != 1 {
		t.Errorf("deprecated fields overrode the Bank sub-config: %+v", d.Bank)
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	m := core.Machine{Name: "n", Procs: 4, Banks: 32, D: 4, G: 1, L: 10}
	once := Config{Machine: m, BankCacheLines: 1}.Normalize()
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
		{"negative cache lines", Config{Machine: m, BankCacheLines: -1}, "BankCacheLines"},
		{"negative hit delay", Config{Machine: m, BankCacheLines: 1, BankHitDelay: -1}, "BankHitDelay"},
		{"huge row shift", Config{Machine: m, BankCacheLines: 1, BankRowShift: 64}, "BankRowShift"},
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

// Run must reject what Validate rejects, as a typed error. Run routes
// open-loop lockstep-eligible configs to a one-lane batch and the rest to
// the event engine; a solo caller must see the event engine's errors on
// either path, never the batch's lane prefix.
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
		{"negative cache lines", Config{Machine: m, BankCacheLines: -1}, pt, "BankCacheLines"},
		{"bank map size", Config{Machine: m, BankMap: core.InterleaveMap{Banks: 16}}, pt, "BankMap"},
		{"dram miss delay", Config{Machine: m, Bank: BankConfig{Discipline: DRAM, MissDelay: -1}}, pt, "Bank.MissDelay"},
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
