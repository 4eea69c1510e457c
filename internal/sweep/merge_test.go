package sweep

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dxbsp/internal/runner"
	"dxbsp/internal/sim"
)

func writeJournal(t *testing.T, dir, name string, hdr *runner.JournalHeader, entries map[string]sim.Result) {
	t.Helper()
	if err := runner.WriteJournalFile(filepath.Join(dir, name), hdr, entries); err != nil {
		t.Fatal(err)
	}
}

func res(cycles float64) sim.Result { return sim.Result{Cycles: cycles} }

func TestMergeCombinesShards(t *testing.T) {
	dir := t.TempDir()
	hdr := func(i int) *runner.JournalHeader {
		return &runner.JournalHeader{Shard: i, Of: 2, Config: "cafe"}
	}
	writeJournal(t, dir, runner.ShardJournalName(0, 2), hdr(0),
		map[string]sim.Result{"k0": res(1), "k2": res(3), "shared": res(9)})
	writeJournal(t, dir, runner.ShardJournalName(1, 2), hdr(1),
		map[string]sim.Result{"k1": res(2), "shared": res(9)})
	// A journal.worker-<id>.jsonl left by the retired dynamic workers still
	// matches the journal.*.jsonl glob and merges like a shard journal.
	writeJournal(t, dir, "journal.worker-a.jsonl", &runner.JournalHeader{Worker: "a", Config: "cafe"},
		map[string]sim.Result{"k3": res(4), "shared": res(9)})

	st, err := Merge(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 3 || st.Records != 5 || st.Duplicates != 2 || st.Skipped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	entries, _, skipped, err := runner.ReadJournalFile(filepath.Join(dir, "journal.jsonl"), nil)
	if err != nil || skipped != 0 {
		t.Fatalf("read merged: skipped=%d err=%v", skipped, err)
	}
	if len(entries) != 5 || entries["shared"] != res(9) || entries["k3"] != res(4) {
		t.Fatalf("merged entries: %v", entries)
	}
}

// Merging is deterministic: the same inputs produce byte-identical output,
// and re-merging (which now includes the canonical journal itself) is a
// fixpoint.
func TestMergeDeterministicAndIdempotent(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, runner.ShardJournalName(0, 2), nil, map[string]sim.Result{"b": res(2), "a": res(1)})
	writeJournal(t, dir, runner.ShardJournalName(1, 2), nil, map[string]sim.Result{"c": res(3)})
	if _, err := Merge(dir, nil); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(dir, nil); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatal("re-merge changed the canonical journal")
	}
}

func TestMergeRejectsConflictingResults(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, runner.ShardJournalName(0, 2), nil, map[string]sim.Result{"k": res(1)})
	writeJournal(t, dir, runner.ShardJournalName(1, 2), nil, map[string]sim.Result{"k": res(2)})
	_, err := Merge(dir, nil)
	if err == nil || !strings.Contains(err.Error(), "determinism violation") {
		t.Fatalf("conflicting results merged: %v", err)
	}
}

func TestMergeRejectsForeignSweep(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, runner.ShardJournalName(0, 2),
		&runner.JournalHeader{Config: "cafe"}, map[string]sim.Result{"a": res(1)})
	writeJournal(t, dir, runner.ShardJournalName(1, 2),
		&runner.JournalHeader{Config: "beef"}, map[string]sim.Result{"b": res(2)})
	_, err := Merge(dir, nil)
	var ue *UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("foreign journal merged: %v", err)
	}
}

func TestMergeEmptyDirIsUsageError(t *testing.T) {
	_, err := Merge(t.TempDir(), nil)
	var ue *UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("empty merge: got %v, want *UsageError", err)
	}
}

// Torn records in an input journal are skipped (and counted), never
// propagated into the canonical journal.
func TestMergeSkipsTornRecords(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, runner.ShardJournalName(0, 1), nil, map[string]sim.Result{"a": res(1), "b": res(2)})
	path := filepath.Join(dir, runner.ShardJournalName(0, 1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-15], 0o644); err != nil {
		t.Fatal(err)
	}
	var warnings strings.Builder
	st, err := Merge(dir, &warnings)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 || st.Skipped != 1 {
		t.Fatalf("stats = %+v, want 1 record 1 skipped", st)
	}
	if !strings.Contains(warnings.String(), "skipped") {
		t.Fatalf("no warning for torn record:\n%s", warnings.String())
	}
}
