package sim

// server is a FIFO service station — one memory bank or one network
// section. The waiting line is a growable ring buffer with power-of-two
// capacity, so enqueue/dequeue are mask-and-index with no allocation and
// no slice shifting in steady state.
//
// The previous implementation kept a plain slice and dequeued with
// `s.queue = s.queue[1:]`. That had two costs: every enqueue after a
// dequeue appended past the old elements (the backing array could never
// be reused, churning the allocator), and — worse — the re-slice pinned
// the FULL backing array for the life of the run, because the slice
// header kept pointing into it while head elements became unreachable
// garbage the collector could not free. The ring buffer removes both;
// TestEventLoopSteadyStateAllocs guards the fix.
type server struct {
	busy bool
	maxQ int // high-water mark of the waiting line (excludes in-service)

	buf  []request // ring storage; len(buf) is always zero or a power of two
	head int       // index of the oldest queued request
	n    int       // number of queued requests
}

// qlen returns the current waiting-line length.
func (s *server) qlen() int { return s.n }

// enqueue appends r to the waiting line.
func (s *server) enqueue(r request) {
	if s.n == len(s.buf) {
		s.grow(s.n + 1)
	}
	s.buf[(s.head+s.n)&(len(s.buf)-1)] = r
	s.n++
	if s.n > s.maxQ {
		s.maxQ = s.n
	}
}

// dequeue removes and returns the oldest queued request.
func (s *server) dequeue() (request, bool) {
	if s.n == 0 {
		return request{}, false
	}
	r := s.buf[s.head]
	s.head = (s.head + 1) & (len(s.buf) - 1)
	s.n--
	return r, true
}

// grow relinearizes the ring into a buffer of at least need slots.
func (s *server) grow(need int) {
	capacity := 8
	for capacity < need {
		capacity <<= 1
	}
	buf := make([]request, capacity)
	if s.n > 0 {
		mask := len(s.buf) - 1
		for i := 0; i < s.n; i++ {
			buf[i] = s.buf[(s.head+i)&mask]
		}
	}
	s.buf = buf
	s.head = 0
}
