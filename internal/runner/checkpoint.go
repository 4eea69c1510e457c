package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"dxbsp/internal/sim"
)

// Journal is the crash-safe checkpoint store: an append-only JSON-lines
// file of simulation results keyed by the cache's content key (SimKey).
// Each record carries an FNV-64a checksum, so a journal left behind by a
// killed run is always usable: decoding skips truncated or corrupted
// records with a warning, never fails, and never serves a false hit.
//
// The journal persists at the simulation layer rather than the point
// layer deliberately: sim.Result is a flat struct that round-trips
// exactly through JSON, so a resumed run replays every point against
// journaled results and renders byte-identical output without
// re-executing any journaled simulation.
//
// A journal may open under a shard-specific name (OpenJournalFile) and
// carry a Header identifying which shard of which sweep produced it;
// internal/sweep merges such journals back into the canonical
// journal.jsonl through ReadJournalFile and WriteJournalFile.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	entries  map[string]sim.Result
	hdr      *JournalHeader
	disabled bool // set after a write error; lookups keep working
	skipped  int  // corrupt records dropped during load

	// Corrupt, when non-nil, may transform an encoded record before it is
	// written — the fault injector's hook for corrupted-entry and torn-
	// write faults. The returned bytes must not contain newlines.
	Corrupt func([]byte) []byte

	// OnAppend, when non-nil, is called after each successful append with
	// the number of records written this run — the fault injector's seat
	// for kill-after-N-checkpoints process chaos.
	OnAppend func(appended uint64)

	warn     io.Writer
	restored atomic.Uint64
	appended atomic.Uint64
}

// journalFile is the canonical journal name inside the checkpoint
// directory: the one a plain -checkpoint run writes and -resume reads.
const journalFile = "journal.jsonl"

// JournalHeader identifies the producer of a shard journal. It is written
// as the file's first record and checked on resume and merge, so journals
// from different shard layouts or differently configured sweeps are never
// silently combined.
//
// The field set is frozen: the header's checksum (headerSum) hashes %+v
// of the whole struct, so adding, dropping or renaming a field would
// change the checksum of every journal on disk, and a resumed shard would
// skip its own header as corrupt (TestShardJournalHeaderPinned). That is
// why Worker stays although nothing writes it any more.
type JournalHeader struct {
	// Shard and Of identify the static shard (Shard in [0, Of)).
	Shard int `json:"shard"`
	Of    int `json:"of,omitempty"`
	// Worker named the producing worker of the retired dynamic sweep
	// mode; dxsim -journal still prints it for journal.worker-*.jsonl
	// files, which Merge reads like shard journals.
	Worker string `json:"worker,omitempty"`
	// Config fingerprints the sweep configuration (experiment set, n,
	// seed, quick); journals only merge when it agrees.
	Config string `json:"config,omitempty"`
}

// ShardJournalName returns the journal file name for static shard i of n.
func ShardJournalName(i, n int) string {
	return fmt.Sprintf("journal.shard-%d-of-%d.jsonl", i, n)
}

// OpenJournal opens the canonical checkpoint journal in dir, creating the
// directory if needed. With resume set, previously journaled results are
// loaded (corrupt records skipped with a warning on warn) and new results
// are appended; otherwise any existing journal is truncated and the run
// starts a fresh one.
func OpenJournal(dir string, resume bool, warn io.Writer) (*Journal, error) {
	return OpenJournalFile(dir, journalFile, resume, warn)
}

// OpenJournalFile opens the journal stored under the given file name in
// dir — shard journals live beside the canonical one under
// ShardJournalName.
func OpenJournalFile(dir, name string, resume bool, warn io.Writer) (*Journal, error) {
	if warn == nil {
		warn = io.Discard
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	path := filepath.Join(dir, name)
	j := &Journal{entries: map[string]sim.Result{}, warn: warn}
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if resume {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		data, err := os.ReadFile(path)
		if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		j.entries, j.hdr, j.skipped = decodeJournal(data, warn)
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	j.f = f
	return j, nil
}

// Close flushes and closes the journal file. Lookups keep working.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Sync forces journaled records to stable storage. A shard calls it
// before reporting itself done, so a merge that follows reads every
// record the shard counted.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.f.Sync()
}

// WriteHeader records h as the journal's producer identity. On a fresh
// journal the header is written as the first record; on resume the loaded
// header must match h exactly — a mismatch means the caller is about to
// append shard i/n records to a journal produced by a different shard
// layout or sweep configuration, and is an error, not a warning.
func (j *Journal) WriteHeader(h JournalHeader) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.hdr != nil {
		if *j.hdr != h {
			return fmt.Errorf("checkpoint: journal header mismatch: journal was written by %+v, this run is %+v", *j.hdr, h)
		}
		return nil
	}
	j.hdr = &h
	if j.f == nil || j.disabled {
		return nil
	}
	if _, err := j.f.Write(append(encodeHeader(h), '\n')); err != nil {
		j.disabled = true
		fmt.Fprintf(j.warn, "checkpoint: write failed, journaling disabled: %v\n", err)
	}
	return nil
}

// Len returns the number of results currently held (loaded + appended).
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Lookup returns the journaled result for key, if present.
func (j *Journal) Lookup(key string) (sim.Result, bool) {
	j.mu.Lock()
	r, ok := j.entries[key]
	j.mu.Unlock()
	if ok {
		j.restored.Add(1)
	}
	return r, ok
}

// Append journals one computed result. Write failures disable further
// journaling with a warning — losing checkpoints must never fail the run.
func (j *Journal) Append(key string, res sim.Result) {
	j.mu.Lock()
	if _, ok := j.entries[key]; ok {
		j.mu.Unlock()
		return
	}
	j.entries[key] = res
	if j.f == nil || j.disabled {
		j.mu.Unlock()
		return
	}
	line := encodeRecord(key, res)
	if j.Corrupt != nil {
		line = j.Corrupt(line)
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		j.disabled = true
		fmt.Fprintf(j.warn, "checkpoint: write failed, journaling disabled: %v\n", err)
		j.mu.Unlock()
		return
	}
	n := j.appended.Add(1)
	hook := j.OnAppend
	j.mu.Unlock()
	if hook != nil {
		hook(n)
	}
}

// JournalStats snapshots the journal's effectiveness counters.
type JournalStats struct {
	// Loaded is the number of results currently held.
	Loaded int
	// Skipped counts corrupt or truncated records dropped during load.
	Skipped int
	// Restored counts lookups served from the journal this run.
	Restored uint64
	// Appended counts records written this run.
	Appended uint64
}

// Stats returns a snapshot of the counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	loaded, skipped := len(j.entries), j.skipped
	j.mu.Unlock()
	return JournalStats{
		Loaded:   loaded,
		Skipped:  skipped,
		Restored: j.restored.Load(),
		Appended: j.appended.Load(),
	}
}

// journalRecord is one result line of the journal file.
type journalRecord struct {
	Key string     `json:"k"`
	Res sim.Result `json:"r"`
	Sum string     `json:"s"`
}

// headerRecord is the journal's producer-identity line.
type headerRecord struct {
	Hdr JournalHeader `json:"h"`
	Sum string        `json:"s"`
}

// anyRecord is the decode-side union of the two line shapes.
type anyRecord struct {
	Key string         `json:"k"`
	Res sim.Result     `json:"r"`
	Hdr *JournalHeader `json:"h"`
	Sum string         `json:"s"`
}

// recordSum fingerprints one record's payload. %+v of sim.Result is
// deterministic (flat struct, shortest-round-trip floats), so the sum is
// stable across processes.
func recordSum(key string, res sim.Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%+v", key, res)
	return fmt.Sprintf("%016x", h.Sum64())
}

// headerSum fingerprints the header record; JournalHeader is flat, so
// %+v is deterministic.
func headerSum(h JournalHeader) string {
	f := fnv.New64a()
	fmt.Fprintf(f, "hdr|%+v", h)
	return fmt.Sprintf("%016x", f.Sum64())
}

func encodeRecord(key string, res sim.Result) []byte {
	// A fixed struct of strings and scalars cannot fail to marshal.
	line, _ := json.Marshal(journalRecord{Key: key, Res: res, Sum: recordSum(key, res)})
	return line
}

func encodeHeader(h JournalHeader) []byte {
	line, _ := json.Marshal(headerRecord{Hdr: h, Sum: headerSum(h)})
	return line
}

// decodeJournal parses journal bytes tolerantly: records that fail to
// parse, have no key, or whose checksum does not match are counted and
// skipped with a warning carrying the record's byte offset — a truncated
// tail is the normal residue of a killed run, and a corrupted record must
// become a recompute, never a false hit. Later records win over earlier
// duplicates; the first valid header wins.
func decodeJournal(data []byte, warn io.Writer) (map[string]sim.Result, *JournalHeader, int) {
	if warn == nil {
		warn = io.Discard
	}
	entries := map[string]sim.Result{}
	var hdr *JournalHeader
	skipped := 0
	offset := 0
	for lineNo := 1; len(data) > 0; lineNo++ {
		line := data
		next := len(data)
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, next = data[:i], i+1
		}
		recOff := offset
		offset += next
		data = data[next:]
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec anyRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			skipped++
			fmt.Fprintf(warn, "checkpoint: skipping unreadable record at line %d (offset %d): %v\n", lineNo, recOff, err)
			continue
		}
		if rec.Hdr != nil {
			if rec.Sum != headerSum(*rec.Hdr) {
				skipped++
				fmt.Fprintf(warn, "checkpoint: skipping corrupt header at line %d (offset %d, checksum mismatch)\n", lineNo, recOff)
			} else if hdr == nil {
				hdr = rec.Hdr
			}
			continue
		}
		if rec.Key == "" || rec.Sum != recordSum(rec.Key, rec.Res) {
			skipped++
			fmt.Fprintf(warn, "checkpoint: skipping corrupt record at line %d (offset %d, checksum mismatch)\n", lineNo, recOff)
			continue
		}
		entries[rec.Key] = rec.Res
	}
	return entries, hdr, skipped
}

// ReadJournalFile loads one journal file tolerantly: its header (if any),
// its valid records, and the count of records skipped as corrupt or torn.
// A missing file is not an error; it reads as empty.
func ReadJournalFile(path string, warn io.Writer) (map[string]sim.Result, *JournalHeader, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]sim.Result{}, nil, 0, nil
		}
		return nil, nil, 0, fmt.Errorf("checkpoint: %w", err)
	}
	entries, hdr, skipped := decodeJournal(data, warn)
	return entries, hdr, skipped, nil
}

// WriteJournalFile writes entries as a canonical journal: header first
// (when non-nil), then records sorted by key, built in a temp file and
// atomically renamed into place — the merge path's deterministic output.
// The same entry set always produces byte-identical bytes.
func WriteJournalFile(path string, hdr *JournalHeader, entries map[string]sim.Result) error {
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	if hdr != nil {
		buf.Write(encodeHeader(*hdr))
		buf.WriteByte('\n')
	}
	for _, k := range keys {
		buf.Write(encodeRecord(k, entries[k]))
		buf.WriteByte('\n')
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}
