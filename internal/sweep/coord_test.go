package sweep

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// The coordinator/worker protocol end to end, compressed in time: a dead
// worker's lease (claimed, never renewed, never marked done) is reclaimed
// by the coordinator and its range re-executed by a live worker, and the
// sweep completes with every range done exactly once in the done-marker
// sense even though one range ran under two claims.
func TestCoordinatorReclaimsAbandonedLease(t *testing.T) {
	d := &Dir{Path: t.TempDir(), TTL: 50 * time.Millisecond}
	man := Manifest{
		Config: "cafe",
		Chunk:  2,
		Ranges: []Range{
			{ID: "A.0-2", Experiment: "A", Start: 0, End: 2},
			{ID: "A.2-4", Experiment: "A", Start: 2, End: 4},
			{ID: "B.0-2", Experiment: "B", Start: 0, End: 2},
		},
	}
	// A worker that died immediately after claiming: the lease exists, no
	// heartbeat will ever renew it, no done marker will appear.
	if ok, err := d.Claim("A.2-4", "dead"); err != nil || !ok {
		t.Fatalf("dead worker claim: ok=%v err=%v", ok, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var mu sync.Mutex
	executed := map[string]int{}
	w := &Worker{
		Dir:      d,
		Manifest: man,
		ID:       "live",
		Exec: func(ctx context.Context, rg Range) error {
			mu.Lock()
			executed[rg.ID]++
			mu.Unlock()
			return nil
		},
	}

	coordDone := make(chan CoordStats, 1)
	coordErr := make(chan error, 1)
	go func() {
		c := &Coordinator{Dir: d, Manifest: man}
		st, err := c.Run(ctx)
		coordDone <- st
		coordErr <- err
	}()

	completed, err := w.Run(ctx)
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	st := <-coordDone
	if err := <-coordErr; err != nil {
		t.Fatalf("coordinator: %v", err)
	}

	if completed != len(man.Ranges) {
		t.Errorf("live worker completed %d ranges, want %d", completed, len(man.Ranges))
	}
	if st.Reclaimed != 1 {
		t.Errorf("reclaimed %d leases, want 1", st.Reclaimed)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, rg := range man.Ranges {
		if executed[rg.ID] != 1 {
			t.Errorf("range %s executed %d times by the live worker", rg.ID, executed[rg.ID])
		}
		if !d.IsDone(rg.ID) {
			t.Errorf("range %s has no done marker", rg.ID)
		}
	}
}

// Two live workers split the manifest without overlap: done markers and
// leases make every range execute exactly once when nobody dies. Run with
// -race in CI.
func TestWorkersShareManifestWithoutOverlap(t *testing.T) {
	d := &Dir{Path: t.TempDir(), TTL: time.Minute} // no reclaim in this test
	var ranges []Range
	for i := 0; i < 12; i += 2 {
		ranges = append(ranges, Range{ID: rangeID("A", i, i+2), Experiment: "A", Start: i, End: i + 2})
	}
	man := Manifest{Config: "cafe", Chunk: 2, Ranges: ranges}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var mu sync.Mutex
	executed := map[string]int{}
	mkWorker := func(id string) *Worker {
		// A worker that finds every open range leased waits Poll before
		// looking again; the default (TTL/4) would outlast the deadline.
		return &Worker{Dir: d, Manifest: man, ID: id, Poll: time.Millisecond,
			Exec: func(ctx context.Context, rg Range) error {
				mu.Lock()
				executed[rg.ID]++
				mu.Unlock()
				return nil
			}}
	}

	var wg sync.WaitGroup
	for _, id := range []string{"w1", "w2", "w3"} {
		w := mkWorker(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.ID, err)
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, rg := range ranges {
		if executed[rg.ID] != 1 {
			t.Errorf("range %s executed %d times", rg.ID, executed[rg.ID])
		}
	}
}

// A stalled-heartbeat worker (chaos) keeps executing but never renews, so
// the coordinator reclaims its lease out from under a live process; the
// stalled worker's MarkDone is still safe because done markers are
// idempotent and results deterministic.
func TestStallHeartbeatLosesLease(t *testing.T) {
	d := &Dir{Path: t.TempDir(), TTL: 40 * time.Millisecond}
	man := Manifest{Config: "cafe", Chunk: 2,
		Ranges: []Range{{ID: "A.0-2", Experiment: "A", Start: 0, End: 2}}}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	release := make(chan struct{})
	w := &Worker{Dir: d, Manifest: man, ID: "stalled", StallHeartbeat: true,
		Exec: func(ctx context.Context, rg Range) error {
			<-release // hold the range past TTL + grace
			return nil
		}}
	done := make(chan error, 1)
	go func() {
		_, err := w.Run(ctx)
		done <- err
	}()

	// Wait out TTL + grace, then the coordinator-side reclaim must succeed
	// even though the claiming process is alive.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ids, err := d.ReclaimExpired(man.Ranges)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled worker's lease never became reclaimable")
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("stalled worker: %v", err)
	}
	if !d.IsDone("A.0-2") {
		t.Fatal("stalled worker failed to publish its done marker")
	}
}

func rangeID(exp string, start, end int) string {
	return fmt.Sprintf("%s.%d-%d", exp, start, end)
}
