package runner

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"
	"sync"
	"sync/atomic"

	"dxbsp/internal/core"
	"dxbsp/internal/experiments"
	"dxbsp/internal/sim"
)

// CacheKeyer is implemented by bank maps that can fingerprint themselves
// for result memoization. Two maps with equal keys must assign every
// address to the same bank. Bank maps that do not implement it (and are
// not the built-in interleave map) make a simulation uncacheable: the
// cache falls through to sim.Run rather than risk a false hit.
type CacheKeyer interface {
	CacheKey() string
}

// Cache memoizes simulation results by the full content of the request:
// machine parameters, every sim.Config knob, the bank map fingerprint and
// a digest of the access pattern. Experiments share baselines (the same
// pattern simulated on the same machine appears in several sweeps), so a
// run of the whole suite executes each distinct simulation once.
//
// Concurrent requests for the same key are deduplicated: one caller runs
// the simulation, the rest wait for its result. Failed simulations are
// never cached: the entry is evicted so a retry re-executes, and a panic
// below the cache evicts too (waiters receive a retryable error while the
// panic continues to the runner's point guard). Cache implements
// experiments.SimRunner and is safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry

	// Next, when non-nil, executes cache misses — the fault injector's
	// seat in chaos runs. Nil means sim.RunContext.
	Next experiments.SimRunner

	// Journal, when non-nil, persists every computed result and serves
	// journaled ones without re-running the simulation (checkpoint/resume).
	Journal *Journal

	hits     atomic.Uint64
	misses   atomic.Uint64
	bypassed atomic.Uint64
}

type cacheEntry struct {
	done chan struct{} // closed when res/err are valid
	res  sim.Result
	err  error
}

// NewCache returns an empty simulation cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	// Hits counts requests served from a completed or in-flight entry.
	Hits uint64
	// Misses counts requests that executed the simulation.
	Misses uint64
	// Bypassed counts requests that could not be keyed (unknown bank map
	// type) and went straight to sim.Run.
	Bypassed uint64
}

// HitRate returns hits / (hits + misses), or 0 when the cache is unused.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Bypassed: c.bypassed.Load(),
	}
}

// downstream executes a request below the cache: the configured Next
// runner (fault injector) or the simulator itself. The sim.RunContext
// terminal draws from sim's engine pool, so each cache miss re-arms a
// retained engine rather than building one — in steady state a worker's
// misses run allocation-free.
func (c *Cache) downstream(ctx context.Context, cfg sim.Config, pt core.Pattern) (sim.Result, error) {
	if c.Next != nil {
		return c.Next.RunSim(ctx, cfg, pt)
	}
	return sim.RunContext(ctx, cfg, pt)
}

func (c *Cache) evict(key string) {
	c.mu.Lock()
	delete(c.entries, key)
	c.mu.Unlock()
}

// RunSim implements experiments.SimRunner: it serves the result from the
// cache (or the checkpoint journal) when an identical simulation has
// already run, and executes and stores it otherwise.
func (c *Cache) RunSim(ctx context.Context, cfg sim.Config, pt core.Pattern) (sim.Result, error) {
	key, ok := cacheKey(cfg, pt)
	if !ok {
		c.bypassed.Add(1)
		return c.downstream(ctx, cfg, pt)
	}

	c.mu.Lock()
	if e, found := c.entries[key]; found {
		c.mu.Unlock()
		c.hits.Add(1)
		<-e.done
		return e.res, e.err
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	if c.Journal != nil {
		if res, found := c.Journal.Lookup(key); found {
			e.res = res
			close(e.done)
			return res, nil
		}
	}

	c.misses.Add(1)
	finished := false
	defer func() {
		// A panic below the cache (injected fault, simulator bug) must not
		// leave waiters blocked or a poisoned entry in the map: evict,
		// hand waiters a retryable error, and let the panic continue to
		// the runner's point guard.
		if !finished {
			c.evict(key)
			e.err = MarkTransient(fmt.Errorf("simulation aborted by a panic in a concurrent caller"))
			close(e.done)
		}
	}()
	e.res, e.err = c.downstream(ctx, cfg, pt)
	finished = true
	if e.err != nil {
		// Failures are not cached: evict so a retry re-executes.
		c.evict(key)
	} else if c.Journal != nil {
		c.Journal.Append(key, e.res)
	}
	close(e.done)
	return e.res, e.err
}

// SimKey exposes the cache's content fingerprint of one simulation
// request; the checkpoint journal and the fault injector key on it too.
// ok is false when the request cannot be fingerprinted (unknown bank map).
func SimKey(cfg sim.Config, pt core.Pattern) (string, bool) {
	return cacheKey(cfg, pt)
}

// cacheKey fingerprints one simulation request. The config is normalized
// first so a default-valued knob and its explicit default produce the same
// key. Returns ok=false when the bank map cannot be fingerprinted.
//
// The key is a config prefix plus a pattern digest, computed separately
// because they have different costs: the prefix is a cheap Sprintf over
// scalars, while the digest hashes every address in the pattern — so the
// digest is memoized by slice identity (see digestMemo). Sweeps simulate
// the same handful of patterns under hundreds of configs, and the
// Observer recomputes the key on every RunDone; without the memo the
// probed path would re-hash megabytes per run.
func cacheKey(cfg sim.Config, pt core.Pattern) (string, bool) {
	cfg = cfg.Normalize()
	prefix, ok := configPrefix(cfg)
	if !ok {
		return "", false
	}
	return prefix + patDigests.digestOf(pt), true
}

// configPrefix fingerprints every behavioral knob of the normalized cfg.
// Returns ok=false when the bank map cannot be fingerprinted.
//
// The FIFO row-buffer knobs are emitted in the historical bcl/bhd/brs
// encoding, derived from the normalized Bank sub-config (bcl the row
// lines, bhd the hit delay, brs log2 of the row size in words), and
// non-FIFO disciplines append their sub-config after it — so every key
// minted before the discipline API exists unchanged, and the checkpoint
// journals and memo entries keyed under it stay valid. Knobs the
// simulator has since dropped keep their historical constant spelling
// (comb=false; Groups:0 GroupGap:0 in the bank sub-config), so keys of
// the configs that remain do not move. TestConfigPrefixCompat pins the
// exact strings.
func configPrefix(cfg sim.Config) (string, bool) {
	bmKey, ok := bankMapKey(cfg.BankMap)
	if !ok {
		return "", false
	}
	brs := 0
	if cfg.Bank.CacheLines > 0 && cfg.Bank.RowWords > 0 {
		brs = bits.TrailingZeros(uint(cfg.Bank.RowWords))
	}
	ext := ""
	if b := cfg.Bank; b.Discipline != sim.FIFO {
		// Every BankConfig field, in the order and format %+v printed
		// them when the struct still had Groups and GroupGap.
		ext = fmt.Sprintf("disc=%s|bank={Discipline:%s CacheLines:%d HitDelay:%g RowWords:%d MissDelay:%g Groups:0 GroupGap:0 RegWindow:%g RegBudget:%d WarpSize:%d}|",
			b.Discipline, b.Discipline, b.CacheLines, b.HitDelay, b.RowWords, b.MissDelay,
			b.RegWindow, b.RegBudget, b.WarpSize)
	}
	// Machine is all scalar fields, so %+v is a complete fingerprint.
	return fmt.Sprintf("m=%+v|bm=%s|w=%d|comb=false|nd=%g|sect=%t|bcl=%d|bhd=%g|brs=%d|%spt=",
		cfg.Machine, bmKey,
		cfg.Window, cfg.NetDelay, cfg.UseSections,
		cfg.Bank.CacheLines, cfg.Bank.HitDelay, brs, ext), true
}

func bankMapKey(bm core.BankMap) (string, bool) {
	switch m := bm.(type) {
	case nil:
		return "nil", true
	case core.InterleaveMap:
		return fmt.Sprintf("interleave:%d", m.Banks), true
	case core.GPUSharedMap:
		return fmt.Sprintf("gpushared:%d", m.Banks), true
	case CacheKeyer:
		return m.CacheKey(), true
	default:
		return "", false
	}
}

// digestMemo caches recent pattern digests by slice identity. A pattern's
// digest hashes its full address content, which is the dominant cost of
// keying a run; but the suite simulates a small set of patterns over and
// over (every sweep point, every RunDone commit), so identity — the same
// per-processor slices, by pointer and length — almost always answers
// before content hashing is needed.
//
// Correctness of the identity check rests on two facts. First, each memo
// entry retains the pattern it fingerprinted, so the backing arrays stay
// reachable and their addresses cannot be recycled for different content
// while the entry lives. Second, callers of the cache already must not
// mutate a pattern after submitting it — the cache fingerprints content
// at submit time, so in-place mutation silently breaks memoization and
// journaling with or without this memo. The entry table is small and
// round-robin evicted: it bounds how many patterns the memo pins while
// covering the handful a concurrent sweep has in flight.
type digestMemo struct {
	mu      sync.Mutex
	entries [8]struct {
		pt     core.Pattern
		digest string
	}
	next int // round-robin eviction cursor
}

// patDigests is the process-wide digest memo, shared by the cache and
// (via SimKey) the Observer's commit path.
var patDigests digestMemo

func (m *digestMemo) digestOf(pt core.Pattern) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.entries {
		if samePatternIdentity(m.entries[i].pt, pt) {
			return m.entries[i].digest
		}
	}
	d := patternDigest(pt)
	m.entries[m.next].pt = pt
	m.entries[m.next].digest = d
	m.next = (m.next + 1) % len(m.entries)
	return d
}

// samePatternIdentity reports whether a and b are structurally the same
// slices: the same processor count and, per processor, the same backing
// pointer and length. Identity implies content equality under the
// no-mutation-after-submit contract.
func samePatternIdentity(a, b core.Pattern) bool {
	if len(a.PerProc) != len(b.PerProc) || len(a.PerProc) == 0 {
		return false
	}
	for i := range a.PerProc {
		x, y := a.PerProc[i], b.PerProc[i]
		if len(x) != len(y) {
			return false
		}
		if len(x) > 0 && &x[0] != &y[0] {
			return false
		}
	}
	return true
}

// patternDigest hashes the full address content of a pattern (FNV-1a 64
// over every address, with per-processor framing) plus its shape, so two
// patterns collide only if their per-processor address streams agree.
func patternDigest(pt core.Pattern) string {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(pt.PerProc)))
	h.Write(buf[:])
	n := 0
	for _, addrs := range pt.PerProc {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(addrs)))
		h.Write(buf[:])
		for _, a := range addrs {
			binary.LittleEndian.PutUint64(buf[:], a)
			h.Write(buf[:])
		}
		n += len(addrs)
	}
	return fmt.Sprintf("%016x:%d", h.Sum64(), n)
}
