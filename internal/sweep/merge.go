package sweep

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"dxbsp/internal/runner"
	"dxbsp/internal/sim"
)

// MergeStats summarizes one merge.
type MergeStats struct {
	// Files is the number of journal files read (shard journals and any
	// previously merged canonical journal).
	Files int
	// Records is the merged journal's entry count.
	Records int
	// Duplicates counts key collisions across inputs whose results agreed
	// (baselines shared across shards, a re-merge of the canonical journal).
	Duplicates int
	// Skipped counts corrupt or torn records dropped across all inputs.
	Skipped int
}

// Merge combines every journal.*.jsonl in dir (the shard journals) and
// an existing canonical journal.jsonl from a prior merge into the
// canonical journal.jsonl, written deterministically (records sorted by
// key, temp + rename), so the same inputs always produce byte-identical
// output and `-resume` replays the whole sweep with zero re-executed
// simulations.
//
// Safety over silence: journals whose headers carry different sweep
// fingerprints refuse to merge, and a key that maps to two different
// results (impossible unless determinism broke or directories were mixed)
// is an error naming the key, never a coin flip.
func Merge(dir string, warn io.Writer) (MergeStats, error) {
	if warn == nil {
		warn = io.Discard
	}
	var st MergeStats
	names, err := filepath.Glob(filepath.Join(dir, "journal.*.jsonl"))
	if err != nil {
		return st, fmt.Errorf("sweep: %w", err)
	}
	canonical := filepath.Join(dir, "journal.jsonl")
	if _, err := os.Stat(canonical); err == nil {
		names = append(names, canonical)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return st, usageErrorf("sweep: no journals to merge in %s", dir)
	}

	merged := map[string]sim.Result{}
	from := map[string]string{} // key -> file that first contributed it
	config := ""
	for _, name := range names {
		entries, hdr, skipped, err := runner.ReadJournalFile(name, warn)
		if err != nil {
			return st, err
		}
		st.Files++
		st.Skipped += skipped
		if skipped > 0 {
			fmt.Fprintf(warn, "sweep: %s: %d corrupt or torn record(s) skipped\n", filepath.Base(name), skipped)
		}
		if hdr != nil && hdr.Config != "" {
			if config == "" {
				config = hdr.Config
			} else if config != hdr.Config {
				return st, usageErrorf("sweep: %s belongs to a different sweep (config %s, expected %s); refusing to merge",
					filepath.Base(name), hdr.Config, config)
			}
		}
		for key, res := range entries {
			prev, seen := merged[key]
			if !seen {
				merged[key] = res
				from[key] = filepath.Base(name)
				continue
			}
			if prev != res {
				return st, fmt.Errorf("sweep: key %q has conflicting results in %s and %s — determinism violation, refusing to merge",
					key, from[key], filepath.Base(name))
			}
			st.Duplicates++
		}
	}
	st.Records = len(merged)
	if err := runner.WriteJournalFile(canonical, nil, merged); err != nil {
		return st, err
	}
	return st, nil
}
