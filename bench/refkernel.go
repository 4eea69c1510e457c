package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel measures how fast the host runs at the moment, so
// that the end-to-end times can be read at one reference speed. The
// shared 2-CPU virtual machines this benchmark runs on change speed by
// 20–50% within minutes, often on one CPU only. A sample taken on every
// thread on either side of each rep follows that drift, and dividing it
// out leaves the program's own cost (README.md, "Host-speed
// normalization").
//
// The kernel uses nothing from the repository, so no change to the
// program moves it. Its shape follows the simulator's: a walk over a bank
// table twice the size of a core's L2 cache, then a binary event heap.
// The tables are mapped outside the Go heap, so the kernel moves neither
// the program's garbage collection nor its allocation counts.
const (
	refTableLen = 1 << 19 // float64 bank slots per thread: 4 MiB
	refHeapLen  = 1 << 12 // event heap entries per thread
	refSteps    = 1 << 16 // bank visits and heap updates per sample
	// refNominalS is one sample's duration at the reference speed: the
	// median sample on a quiet 2-vCPU Intel Xeon VM (2 MiB L2 per core).
	refNominalS = 0.007
)

// refKernel holds one bank table and one event heap per thread.
type refKernel struct {
	mem    []byte // the mapping behind every thread's table
	tables [][]float64
	heaps  [][]float64
	took   []float64 // per thread, of the last sample
	sums   []float64 // per thread, of the last sample
	sink   float64   // keeps the kernel's results live
}

func newRefKernel() (*refKernel, error) {
	n := runtime.GOMAXPROCS(0)
	mem, err := syscall.Mmap(-1, 0, n*refTableLen*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference kernel's tables: %w", err)
	}
	all := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), n*refTableLen)
	k := &refKernel{mem: mem, took: make([]float64, n), sums: make([]float64, n)}
	for i := range n {
		k.tables = append(k.tables, all[i*refTableLen:(i+1)*refTableLen])
		k.heaps = append(k.heaps, make([]float64, 0, refHeapLen))
	}
	return k, nil
}

func (k *refKernel) close() error { return syscall.Munmap(k.mem) }

// residentKB is the resident size of the tables once a sample has
// touched them.
func (k *refKernel) residentKB() int64 { return int64(len(k.mem)) / 1024 }

// sample runs the kernel on every thread at once and returns the mean
// seconds a thread took.
func (k *refKernel) sample() float64 {
	var wg sync.WaitGroup
	for i := range k.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			k.sums[i] = refWalk(k.tables[i], k.heaps[i][:0], uint64(i)+0x9e3779b97f4a7c15)
			k.took[i] = time.Since(t0).Seconds()
		}()
	}
	wg.Wait()
	k.sink += sum(k.sums)
	return sum(k.took) / float64(len(k.took))
}

// refWalk is one thread's sample: requests at xorshift-random banks each
// start when their bank frees up, and then an event heap is popped and
// refilled once per request.
func refWalk(table, heap []float64, x uint64) float64 {
	clear(table)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	worst := 0.0
	for i := range refSteps {
		b := next() & (refTableLen - 1)
		fin := max(float64(i>>6), table[b]) + 7
		table[b] = fin
		worst = max(worst, fin)
	}
	up := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if heap[p] <= heap[i] {
				return
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	for range refHeapLen {
		heap = append(heap, float64(next()%1000))
		up(len(heap) - 1)
	}
	for range refSteps {
		// Replace the minimum with a later event and sift it down.
		heap[0] += float64(next()%97) + 1
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(heap) {
				break
			}
			if c+1 < len(heap) && heap[c+1] < heap[c] {
				c++
			}
			if heap[i] <= heap[c] {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	return worst + heap[0]
}
