package runner

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dxbsp/internal/sim"
)

func testResult(i int) sim.Result {
	return sim.Result{Cycles: 1000.25 + float64(i)/3, Requests: 10 * i, BankServices: 9 * i,
		MaxBankServed: i, MaxBankQueue: i + 1, BankBusy: 0.125 * float64(i), RowHits: i % 2}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		j.Append(string(rune('a'+i)), testResult(i))
	}
	j.Append("a", testResult(99)) // duplicate key: first write wins
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 5 {
		t.Fatalf("reloaded %d entries, want 5", j2.Len())
	}
	for i := 0; i < 5; i++ {
		got, ok := j2.Lookup(string(rune('a' + i)))
		if !ok {
			t.Fatalf("entry %d missing after reload", i)
		}
		if got != testResult(i) {
			t.Errorf("entry %d = %+v, want %+v (JSON round-trip must be exact)", i, got, testResult(i))
		}
	}
	st := j2.Stats()
	if st.Loaded != 5 || st.Skipped != 0 || st.Restored != 5 {
		t.Errorf("stats = %+v", st)
	}
}

// Opening without resume truncates: a fresh run must not silently reuse a
// stale journal.
func TestJournalTruncatesWithoutResume(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir, false, nil)
	j.Append("k", testResult(1))
	j.Close()
	j2, err := OpenJournal(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 0 {
		t.Errorf("non-resume open kept %d entries", j2.Len())
	}
}

// Corrupt and truncated records are skipped with a warning, never fatal,
// and never a false hit; intact records around them survive.
func TestJournalSkipsCorruptRecords(t *testing.T) {
	good1 := string(encodeRecord("k1", testResult(1)))
	good2 := string(encodeRecord("k2", testResult(2)))
	tampered := strings.Replace(string(encodeRecord("k3", testResult(3))), `"Cycles":1001.25`, `"Cycles":9999`, 1)
	data := good1 + "\n" + "{garbage\n" + tampered + "\n" + good2 + "\n" + good2[:len(good2)/2]

	var warn strings.Builder
	entries, _, skipped := decodeJournal([]byte(data), &warn)
	if skipped != 3 {
		t.Errorf("skipped = %d, want 3 (garbage, tampered, truncated)", skipped)
	}
	if len(entries) != 2 {
		t.Errorf("entries = %d, want 2", len(entries))
	}
	if _, ok := entries["k3"]; ok {
		t.Error("tampered record served as a hit")
	}
	if warn.Len() == 0 {
		t.Error("no warnings emitted")
	}
}

func TestJournalResumeFromCorruptFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalFile)
	line := encodeRecord("k", testResult(4))
	content := append(append([]byte{}, line...), []byte("\nnot json at all\n")...)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	var warn strings.Builder
	j, err := OpenJournal(dir, true, &warn)
	if err != nil {
		t.Fatalf("corrupt journal was fatal: %v", err)
	}
	defer j.Close()
	if j.Len() != 1 || j.Stats().Skipped != 1 {
		t.Errorf("Len=%d Skipped=%d, want 1/1", j.Len(), j.Stats().Skipped)
	}
	if !strings.Contains(warn.String(), "skipping") {
		t.Errorf("warning missing:\n%s", warn.String())
	}
}

// The cache serves journal hits without executing and journals every
// computed result; errors are never journaled.
func TestCacheJournalIntegration(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.Journal = j
	cfg, pt := testConfig(), testPattern(256, 1)
	want, err := c.RunSim(context.Background(), cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Window = -1
	if _, err := c.RunSim(context.Background(), bad, pt); err == nil {
		t.Fatal("invalid config succeeded")
	}
	j.Close()

	// A fresh cache resuming from the journal serves the result without a
	// miss; the failed simulation was not journaled.
	j2, err := OpenJournal(dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 {
		t.Fatalf("journal holds %d entries, want 1 (errors must not be journaled)", j2.Len())
	}
	c2 := NewCache()
	c2.Journal = j2
	got, err := c2.RunSim(context.Background(), cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("restored result %+v differs from computed %+v", got, want)
	}
	if st := c2.Stats(); st.Misses != 0 {
		t.Errorf("resume re-executed the simulation: %+v", st)
	}
	if js := j2.Stats(); js.Restored != 1 {
		t.Errorf("journal stats = %+v, want 1 restored", js)
	}
}

// A disabled journal (write failure) must not fail the run.
func TestJournalWriteFailureNonFatal(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var warn strings.Builder
	j.warn = &warn
	j.f.Close() // force the next write to fail
	j.Append("k", testResult(1))
	if _, ok := j.Lookup("k"); !ok {
		t.Error("in-memory entry lost after write failure")
	}
	if !strings.Contains(warn.String(), "journaling disabled") {
		t.Errorf("no warning: %q", warn.String())
	}
	j.f = nil // already closed
}

// TestShardJournalHeaderPinned pins the exact first line a static shard
// journal starts with. The header's checksum is FNV-1a over %+v of
// JournalHeader, so adding, removing or renaming a field (even one no
// producer sets) changes the checksum of every shard journal on disk: a
// resumed shard would then skip its own header as corrupt, append a
// second one, and Merge's foreign-sweep refusal would go quiet for it.
func TestShardJournalHeaderPinned(t *testing.T) {
	const want = `{"h":{"shard":1,"of":4,"config":"0123456789abcdef"},"s":"2ba93d86e562974b"}` + "\n"
	dir := t.TempDir()
	name := ShardJournalName(1, 4)
	j, err := OpenJournalFile(dir, name, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WriteHeader(JournalHeader{Shard: 1, Of: 4, Config: "0123456789abcdef"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("shard journal header drifted\n got: %q\nwant: %q", got, want)
	}
	// A resume under the same header must accept it as its own.
	j2, err := OpenJournalFile(dir, name, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if err := j2.WriteHeader(JournalHeader{Shard: 1, Of: 4, Config: "0123456789abcdef"}); err != nil {
		t.Errorf("resume rejected the pinned header: %v", err)
	}
	if st := j2.Stats(); st.Skipped != 0 {
		t.Errorf("resume skipped %d record(s) of the pinned header", st.Skipped)
	}
}
