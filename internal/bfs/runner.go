package bfs

import (
	"fmt"
	"sync/atomic"

	"semibfs/internal/bitmap"
	"semibfs/internal/numa"
)

// BFS is breadth-first search as a vertex program: the paper's hybrid
// search, with the tree and visited bitmap as its per-vertex state. The
// visited bitmap is frozen during a push level (claims become visited in
// Activate, at gather time) and the parent is a min-CAS on the tree entry,
// while a pull level claims the first frontier neighbor in scan order — so
// the parent tree is a pure function of the graph and the root,
// independent of worker count, queue depth, and I/O completion order.
// Runner binds a BFS to an Engine; run it directly through NewEngine to
// share an engine API with the other programs.
type BFS struct {
	n       int64
	tree    []int64
	visited *bitmap.Atomic
	scratch []pullParent
}

// pullParent is one worker's pull accumulator, padded against false
// sharing: found reports that parent holds the current candidate's parent.
type pullParent struct {
	parent int64
	found  bool
	_pad   [6]int64
}

// NewBFS returns an unsized BFS program; NewEngine sizes it.
func NewBFS() *BFS { return &BFS{} }

// Tree returns the parent array (-1 for unreached vertices). It aliases
// program state and is valid until the next Run.
func (b *BFS) Tree() []int64 { return b.tree }

// Name implements Program.
func (b *BFS) Name() string { return "bfs" }

// Caps implements Program: both kernel directions.
func (b *BFS) Caps() Caps { return CapPush | CapPull }

// Monotone implements Program: a claimed vertex never re-enters the
// frontier.
func (b *BFS) Monotone() bool { return true }

// Setup implements Program.
func (b *BFS) Setup(n int64, workers int) {
	b.n = n
	b.tree = make([]int64, n)
	b.visited = bitmap.NewAtomic(int(n))
	b.scratch = make([]pullParent, workers)
}

// Reset implements Program.
func (b *BFS) Reset(root int64) error {
	if root < 0 || root >= b.n {
		return fmt.Errorf("bfs: root %d outside [0,%d)", root, b.n)
	}
	for i := range b.tree {
		b.tree[i] = -1
	}
	b.visited.Reset()
	b.tree[root] = root
	b.visited.Set(int(root))
	return nil
}

// InitialFrontier implements Program.
func (b *BFS) InitialFrontier(root int64, emit func(v int64)) { emit(root) }

// Hint implements Program: BFS defers entirely to the alpha/beta rule.
func (b *BFS) Hint(level int, frontier int64) Hint { return HintAuto }

// PushEdges implements Program: competing frontier parents of an
// unvisited vertex race in a min-CAS, so the survivor is the minimum.
func (b *BFS) PushEdges(w int, src int64, dsts []int64, claims *Claims) {
	for _, dst := range dsts {
		if b.visited.Test(int(dst)) {
			continue
		}
		minParent(&b.tree[dst], src)
		claims.Claim(dst)
	}
}

// PullCandidates implements Program: unvisited vertices gather.
func (b *BFS) PullCandidates(word int) uint64 { return ^b.visited.WordAt(word) }

// PullProbe implements Program: remember the first frontier neighbor in
// scan order and terminate the scan; only a candidate that found one is
// left pending.
func (b *BFS) PullProbe(w int, frontier *bitmap.Atomic) (func(nb int64) bool, *bool) {
	s := &b.scratch[w]
	s.found = false
	return func(nb int64) bool {
		if frontier.Test(int(nb)) {
			s.parent, s.found = nb, true
			return false
		}
		return true
	}, &s.found
}

// EndPull implements Program: pull claims become visited immediately (the
// pull kernel's writes are worker-exclusive).
func (b *BFS) EndPull(w int, v int64) bool {
	s := &b.scratch[w]
	if !s.found {
		return false
	}
	b.tree[v] = s.parent
	b.visited.Set(int(v))
	s.found = false
	return true
}

// Activate implements Program: push claims become visited at gather time,
// preserving the frozen-bitmap determinism of the push level.
func (b *BFS) Activate(v int64) { b.visited.Set(int(v)) }

// EndLevel implements Program.
func (b *BFS) EndLevel(level int) {}

// Converged implements Program: BFS terminates when the frontier drains.
func (b *BFS) Converged() bool { return false }

// minParent installs v as *p's parent unless a smaller parent is already
// there (-1 means none yet). The visited bitmap is frozen during a
// top-down level, so *every* frontier parent of an unvisited vertex races
// here; the survivor is the minimum, which makes the parent tree a pure
// function of the graph and the root — independent of worker count, queue
// depth, and I/O completion order.
func minParent(p *int64, v int64) {
	for {
		cur := atomic.LoadInt64(p)
		if cur != -1 && cur <= v {
			return
		}
		if atomic.CompareAndSwapInt64(p, cur, v) {
			return
		}
	}
}

// Runner executes BFS repeatedly over one pair of graphs: the BFS program
// bound to an Engine, reusing all BFS status data (tree, bitmaps, queues)
// across runs — the structures whose sizes Table II reports.
type Runner struct {
	eng  *Engine
	prog *BFS
}

// NewRunner prepares a Runner over the given graphs.
func NewRunner(fwd ForwardAccess, bwd BackwardAccess, part *numa.Partition, cfg Config) (*Runner, error) {
	prog := NewBFS()
	eng, err := NewEngine(fwd, bwd, part, prog, cfg)
	if err != nil {
		return nil, err
	}
	return &Runner{eng: eng, prog: prog}, nil
}

// Run executes one BFS from root and returns its result. The returned
// Tree aliases internal storage; see Result.Tree.
func (r *Runner) Run(root int64) (*Result, error) {
	res, err := r.eng.Run(root)
	if err != nil {
		return nil, err
	}
	res.Tree = r.prog.tree
	return res, nil
}

// StatusBytes returns the DRAM footprint of the BFS status data (tree,
// visited/claim/frontier/next bitmaps, frontier queues) — the "BFS Status
// Data" row of Table II.
func (r *Runner) StatusBytes() int64 {
	n := r.eng.n
	return r.eng.statusBytes() + n*8 + (n+7)/8 // plus tree and visited
}

// Config returns the runner's effective (defaulted) configuration.
func (r *Runner) Config() Config { return r.eng.cfg }

// BackwardScanTotals sums the cumulative DRAM/NVM backward-scan edge
// counts across all workers (zero when the backward access does not track
// them).
func (r *Runner) BackwardScanTotals() (dram, nvmEdges int64) {
	for _, s := range r.eng.scanners {
		if c, ok := s.(ScanCounters); ok {
			d, n := c.Counters()
			dram += d
			nvmEdges += n
		}
	}
	return dram, nvmEdges
}
