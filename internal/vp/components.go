package vp

import (
	"math"
	"sync/atomic"

	"semibfs/internal/bfs"
	"semibfs/internal/bitmap"
)

// Components is connected components by min-label propagation: every
// vertex starts with its own ID as label and repeatedly adopts the
// smallest label among its neighbors, so labels converge to the minimum
// vertex ID of each component. The union-find pass in the root package
// remains the test oracle.
//
// Labels are double-buffered: cur is frozen during a level and next
// absorbs this level's improvements (atomically during push levels, where
// many workers may race on one destination; plainly during pull levels,
// where the engine guarantees exclusive writers), then EndLevel publishes
// next into cur. The freeze makes every level's claim set — and therefore
// the direction decisions and level count — independent of worker count.
type Components struct {
	n         int64
	cur, next []int64
	scratch   []minLabel
}

// minLabel is one worker's pull accumulator — the smallest frontier label
// seen in the current candidate's scan — padded against false sharing.
type minLabel struct {
	label int64
	_pad  [7]int64
}

// noLabel is an empty accumulator: larger than every vertex ID.
const noLabel = math.MaxInt64

// NewComponents returns an unsized components program; bfs.NewEngine sizes
// it.
func NewComponents() *Components { return &Components{} }

// Labels returns the converged label array (label = min vertex ID of the
// component). It aliases program state and is valid until the next Run.
func (c *Components) Labels() []int64 { return c.cur }

// Name implements bfs.Program.
func (c *Components) Name() string { return "cc" }

// Caps implements bfs.Program: both kernel directions.
func (c *Components) Caps() bfs.Caps { return bfs.CapPush | bfs.CapPull }

// Monotone implements bfs.Program: a vertex whose label improves again later
// re-enters the frontier, so degraded rescues discard partial claims and
// let the re-run recompute them (the min writes are idempotent).
func (c *Components) Monotone() bool { return false }

// Setup implements bfs.Program.
func (c *Components) Setup(n int64, workers int) {
	c.n = n
	c.cur = make([]int64, n)
	c.next = make([]int64, n)
	c.scratch = make([]minLabel, workers)
}

// Reset implements bfs.Program: the root is ignored, every vertex starts
// active with its own label.
func (c *Components) Reset(root int64) error {
	for i := range c.cur {
		c.cur[i] = int64(i)
		c.next[i] = int64(i)
	}
	return nil
}

// InitialFrontier implements bfs.Program: all vertices.
func (c *Components) InitialFrontier(root int64, emit func(v int64)) {
	for v := int64(0); v < c.n; v++ {
		emit(v)
	}
}

// Hint implements bfs.Program: pull while the frontier is dense (the first
// sweeps, where nearly every vertex is active and a scatter pass would
// fight over every destination), then let the alpha/beta rule steer the
// sparse endgame.
func (c *Components) Hint(level int, frontier int64) bfs.Hint {
	if frontier*4 >= c.n {
		return bfs.HintPull
	}
	return bfs.HintAuto
}

// PushEdges implements bfs.Program: scatter src's frozen label into
// next[dst] with an atomic min; dst belongs in the next frontier whenever
// its next label has improved on its current one (by this edge or an
// earlier one — the test is against the frozen cur, so a claim is never
// missed when a partial degraded level already lowered next[dst]).
func (c *Components) PushEdges(w int, src int64, dsts []int64, claims *bfs.Claims) {
	label := c.cur[src]
	for _, dst := range dsts {
		atomicMin(&c.next[dst], label)
		if atomic.LoadInt64(&c.next[dst]) < c.cur[dst] {
			claims.Claim(dst)
		}
	}
}

// PullCandidates implements bfs.Program: label propagation gathers densely —
// any vertex with a frontier neighbor can improve, which only the scan
// itself can discover.
func (c *Components) PullCandidates(word int) uint64 { return ^uint64(0) }

// PullProbe implements bfs.Program: fold frontier neighbors' frozen labels
// into the worker's minimum (no early exit — the minimum needs the whole
// scan). Every candidate is finalized: a degraded push level may already
// have lowered next[v].
func (c *Components) PullProbe(w int, frontier *bitmap.Atomic) (func(nb int64) bool, *bool) {
	s := &c.scratch[w]
	s.label = noLabel
	return func(nb int64) bool {
		if frontier.Test(int(nb)) && c.cur[nb] < s.label {
			s.label = c.cur[nb]
		}
		return true
	}, nil
}

// EndPull implements bfs.Program: lower next[v] to the gathered minimum
// (exclusive write) and report whether v's label improved.
func (c *Components) EndPull(w int, v int64) bool {
	s := &c.scratch[w]
	if s.label < c.next[v] {
		c.next[v] = s.label
	}
	s.label = noLabel
	return c.next[v] < c.cur[v]
}

// Activate implements bfs.Program: labels are already final in next; nothing
// becomes visible until EndLevel publishes them.
func (c *Components) Activate(v int64) {}

// EndLevel implements bfs.Program: publish this level's improvements.
func (c *Components) EndLevel(level int) { copy(c.cur, c.next) }

// Converged implements bfs.Program: the run ends when no label changes.
func (c *Components) Converged() bool { return false }

// atomicMin lowers *p to v if v is smaller.
func atomicMin(p *int64, v int64) {
	for {
		cur := atomic.LoadInt64(p)
		if cur <= v {
			return
		}
		if atomic.CompareAndSwapInt64(p, cur, v) {
			return
		}
	}
}
