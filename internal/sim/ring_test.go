package sim

import (
	"testing"

	"dxbsp/internal/rng"
)

func TestServerRingFIFO(t *testing.T) {
	var s server
	if _, ok := s.dequeue(); ok {
		t.Fatal("dequeue on empty server succeeded")
	}
	for i := 0; i < 100; i++ {
		s.enqueue(request{seq: i})
	}
	if s.maxQ != 100 {
		t.Errorf("maxQ = %d, want 100", s.maxQ)
	}
	for i := 0; i < 100; i++ {
		r, ok := s.dequeue()
		if !ok || r.seq != i {
			t.Fatalf("dequeue %d = %+v, %v", i, r, ok)
		}
	}
	if _, ok := s.dequeue(); ok {
		t.Fatal("dequeue on drained server succeeded")
	}
}

// The ring must survive arbitrary interleavings of enqueue and dequeue,
// including wrap-around, and agree with a plain slice model.
func TestServerRingMatchesSliceModel(t *testing.T) {
	g := rng.New(7)
	var s server
	var model []request
	seq := 0
	for step := 0; step < 20000; step++ {
		if len(model) == 0 || g.Intn(2) == 0 {
			seq++
			r := request{seq: seq, addr: g.Uint64n(8)}
			s.enqueue(r)
			model = append(model, r)
		} else {
			got, ok := s.dequeue()
			if !ok {
				t.Fatalf("step %d: dequeue failed with %d queued", step, len(model))
			}
			if got != model[0] {
				t.Fatalf("step %d: dequeue = %+v, want %+v", step, got, model[0])
			}
			model = model[1:]
		}
		if s.qlen() != len(model) {
			t.Fatalf("step %d: qlen = %d, model %d", step, s.qlen(), len(model))
		}
	}
}
