package nvm

import (
	"sync"
	"sync/atomic"

	"semibfs/internal/vtime"
)

// AsyncStore is the asynchronous, coalescing I/O front of the storage
// stack — the SAFS idea from FlashGraph applied to the simulated device.
// It sits between the retry layer and the page cache:
//
//	metrics → retry → async → cache → mirror → checksum → base
//
// and turns the cache's strictly synchronous request-at-a-time fill
// discipline into a bounded pipeline:
//
//   - Multi-block demand reads and prefetches are routed through
//     CachedStore.FillRunAt, which coalesces every absent block of the
//     span into maximal contiguous runs — one large device request per
//     run instead of one per 4 KiB block. Blocks already cached or being
//     filled by another worker are skipped, so the pipeline dedups
//     against the cache's single-flight fills for free.
//   - Outstanding fills occupy one of QueueDepth virtual slots. A new
//     request is issued at max(worker now, earliest slot free time), so
//     at most QueueDepth fills are in flight at any virtual instant; the
//     device model below then applies the profile's channel parallelism
//     to whatever the queue admits. Workers never block on issue — they
//     pay only when they demand-read a block whose fill has not completed
//     (the cache's readyAt discipline).
//   - Prefetch is fully asynchronous: the frontier-driven prefetcher
//     hands the span to the queue and returns; the filled pages carry
//     their run's completion time.
//
// Cancel stops the pipeline (no new fills are issued; demand reads fall
// through to the synchronous path), which the owner invokes on device
// death so a dying replica is not hammered with speculative readahead.
//
// Without a cache below it the store is a transparent pass-through: the
// pipeline's whole mechanism is the cache's page table.
type AsyncStore struct {
	inner  Storage
	cached *CachedStore
	name   string

	mu    sync.Mutex
	slots []vtime.Duration
	// resets is the cache's Reset count the slots belong to: a cache reset
	// starts a new virtual timeline, so the slots' completion times from
	// the old one are cleared at the next acquire.
	resets uint32

	cancelled atomic.Bool

	demandRuns     atomic.Int64
	demandBlocks   atomic.Int64
	prefetchOps    atomic.Int64
	prefetchRuns   atomic.Int64
	prefetchBlocks atomic.Int64
	cancelledReqs  atomic.Int64
}

// WrapAsync places an async pipeline of the given queue depth above inner
// (which should already contain the cache layer). depth <= 0 returns
// inner unchanged — the synchronous baseline.
func WrapAsync(inner Storage, name string, depth int) Storage {
	if depth <= 0 {
		return inner
	}
	return &AsyncStore{
		inner:  inner,
		cached: StackCache(inner),
		name:   name,
		slots:  make([]vtime.Duration, depth),
	}
}

// acquire picks the slot that frees earliest and returns the issue time
// for a request submitted at now. The slot is tentatively held at the
// issue time until release records the true completion.
func (a *AsyncStore) acquire(now vtime.Duration) (int, vtime.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cached != nil {
		if r := a.cached.Cache().resets.Load(); r != a.resets {
			clear(a.slots)
			a.resets = r
		}
	}
	best := 0
	for i, t := range a.slots {
		if t < a.slots[best] {
			best = i
		}
	}
	issueAt := a.slots[best]
	if issueAt < now {
		issueAt = now
	}
	a.slots[best] = issueAt
	return best, issueAt
}

func (a *AsyncStore) release(slot int, completeAt vtime.Duration) {
	a.mu.Lock()
	if a.slots[slot] < completeAt {
		a.slots[slot] = completeAt
	}
	a.mu.Unlock()
}

// QueueDepth returns the pipeline's slot count.
func (a *AsyncStore) QueueDepth() int { return len(a.slots) }

// Cancel stops issuing new asynchronous fills. In-flight fills complete;
// demand reads keep working through the synchronous path underneath.
func (a *AsyncStore) Cancel() {
	a.cancelled.Store(true)
}

// ReadAt implements Storage. A read spanning more than one cache block
// first pushes the whole span through the coalescing queue, then serves
// the (now mostly resident) blocks from the cache underneath; the first
// demand hit on each freshly filled page advances the worker to the run's
// completion time, so the modeled latency is one large pipelined request,
// not len/block sequential ones. Errors surface through the inner path so
// the retry layer above sees exactly what the synchronous stack would.
func (a *AsyncStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	if a.cached != nil && !a.cancelled.Load() && int64(len(p)) > a.cached.Cache().BlockBytes() {
		var now vtime.Duration
		if clock != nil {
			now = clock.Now()
		}
		slot, issueAt := a.acquire(now)
		blocks, runs, readyAt := a.cached.FillRunAt(issueAt, off, int64(len(p)))
		a.release(slot, readyAt)
		a.demandRuns.Add(int64(runs))
		a.demandBlocks.Add(int64(blocks))
	} else if a.cancelled.Load() {
		a.cancelledReqs.Add(1)
	}
	return a.inner.ReadAt(clock, p, off)
}

// Prefetch implements Prefetcher: the span is handed to the queue and the
// caller returns immediately. Blocks already resident or in flight cost
// nothing; a cancelled pipeline drops the hint.
func (a *AsyncStore) Prefetch(clock *vtime.Clock, off, n int64) {
	if n <= 0 || off < 0 {
		return
	}
	if a.cached == nil || a.cancelled.Load() {
		if a.cancelled.Load() {
			a.cancelledReqs.Add(1)
		}
		return
	}
	var now vtime.Duration
	if clock != nil {
		now = clock.Now()
	}
	slot, issueAt := a.acquire(now)
	blocks, runs, readyAt := a.cached.FillRunAt(issueAt, off, n)
	a.release(slot, readyAt)
	a.prefetchOps.Add(1)
	a.prefetchRuns.Add(int64(runs))
	a.prefetchBlocks.Add(int64(blocks))
}

// WriteAt implements Storage (pass-through; offload writes predate reads).
func (a *AsyncStore) WriteAt(clock *vtime.Clock, p []byte, off int64) error {
	return a.inner.WriteAt(clock, p, off)
}

// Size implements Storage.
func (a *AsyncStore) Size() int64 { return a.inner.Size() }

// Device implements Storage.
func (a *AsyncStore) Device() *Device { return a.inner.Device() }

// Close cancels the pipeline and closes the inner stack.
func (a *AsyncStore) Close() error {
	a.Cancel()
	return a.inner.Close()
}

// Kind implements Layer.
func (a *AsyncStore) Kind() string { return "async" }

// Unwrap implements Layer.
func (a *AsyncStore) Unwrap() Storage { return a.inner }

// Stats implements Layer.
func (a *AsyncStore) Stats() LayerStats {
	return LayerStats{Kind: "async", Counters: []Counter{
		{Name: "demand_runs", Value: a.demandRuns.Load()},
		{Name: "demand_blocks", Value: a.demandBlocks.Load()},
		{Name: "prefetch_ops", Value: a.prefetchOps.Load()},
		{Name: "prefetch_runs", Value: a.prefetchRuns.Load()},
		{Name: "prefetch_blocks", Value: a.prefetchBlocks.Load()},
		{Name: "cancelled_requests", Value: a.cancelledReqs.Load()},
		{Name: "queue_depth", Value: int64(len(a.slots)), Gauge: true},
	}}
}
