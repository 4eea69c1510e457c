package runner

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one record of the machine-readable run log: experiment and
// point lifecycle, with wall-clock durations in milliseconds. Events are
// emitted in completion order, which under parallelism is not sweep order;
// the rendered tables, not the event log, carry the determinism guarantee.
type Event struct {
	// Type is "experiment_start", "point_done", "point_retry",
	// "point_failed", "fault_injected", "experiment_done",
	// "checkpoint_loaded", "run_done", or "shard_done".
	Type string `json:"type"`
	// ElapsedMS is the time since the log was opened.
	ElapsedMS float64 `json:"elapsed_ms"`

	Experiment string  `json:"experiment,omitempty"`
	Point      string  `json:"point,omitempty"`
	Index      *int    `json:"index,omitempty"`
	Points     int     `json:"points,omitempty"`
	DurationMS float64 `json:"duration_ms,omitempty"`

	Workers     int     `json:"workers,omitempty"`
	Utilization float64 `json:"utilization,omitempty"`

	// Attempt is the attempt number that failed (point_retry,
	// point_failed); Error is its message. Fault is the injected fault kind
	// (fault_injected). Failed counts permanently failed points
	// (experiment_done, run_done) — nonzero means a degraded run.
	Attempt int    `json:"attempt,omitempty"`
	Error   string `json:"error,omitempty"`
	Fault   string `json:"fault,omitempty"`
	Failed  int    `json:"failed,omitempty"`

	CacheHits     uint64 `json:"cache_hits,omitempty"`
	CacheMisses   uint64 `json:"cache_misses,omitempty"`
	CacheBypassed uint64 `json:"cache_bypassed,omitempty"`

	// Checkpoint journal counters (checkpoint_loaded, run_done).
	CheckpointEntries  int    `json:"checkpoint_entries,omitempty"`
	CheckpointSkipped  int    `json:"checkpoint_skipped,omitempty"`
	CheckpointRestored uint64 `json:"checkpoint_restored,omitempty"`
	CheckpointAppended uint64 `json:"checkpoint_appended,omitempty"`

	// Shard is the static shard spec ("1/4") of a shard_done event.
	Shard string `json:"shard,omitempty"`
}

// EventLog serializes events as JSON lines to a writer. Safe for
// concurrent use; a nil *EventLog discards everything.
type EventLog struct {
	mu    sync.Mutex
	w     io.Writer
	enc   *json.Encoder
	start time.Time
}

// NewEventLog opens a JSON-lines event log on w.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{w: w, enc: json.NewEncoder(w), start: time.Now()}
}

// Emit appends one event to the log, stamping its elapsed time. Callers
// that drive RunExperiment directly (cmd/dxbench) use it to record
// run-level events; a nil receiver discards the event.
func (l *EventLog) Emit(ev Event) { l.emit(ev) }

func (l *EventLog) emit(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ev.ElapsedMS = float64(time.Since(l.start)) / float64(time.Millisecond)
	// Encoding a fixed struct cannot fail; a write error on the log sink
	// must not abort the run, so it is deliberately dropped.
	_ = l.enc.Encode(ev)
}
