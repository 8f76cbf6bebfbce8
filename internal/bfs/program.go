package bfs

import "semibfs/internal/bitmap"

// This file is the vertex-program contract of the hybrid engine, in the
// FlashGraph/Graphyti mold: vertex state lives in DRAM with the Program,
// the adjacency lives wherever the scenario placed it (DRAM CSR replicas
// or an NVM stack behind cache/mirror/checksum/compression layers), and
// the Engine drives scatter (push, over the forward graph) and gather
// (pull, over the backward graph) sweeps with the paper's alpha/beta
// direction-switching rule, NUMA-partitioned worker loops, sorted-gather
// frontiers, frontier-driven prefetch, and degraded-mode rescue. The
// Engine owns every shared structure (frontier queue, per-node frontier
// bitmap replicas, next bitmap, claim bitmap) and all virtual-time cost
// accounting; breadth-first search (BFS, which Runner binds to an Engine)
// is one program, and internal/vp holds the others.
//
// # Hook order
//
// One Run executes, per level (direction chosen by hints, the alpha/beta
// rule, or degraded-mode pinning):
//
//	push level:  PushEdges(w, src, dsts, claims) for every frontier vertex
//	             src with its forward adjacency dsts; each dst the program
//	             passes to claims.Claim enters the engine's TestAndSet claim
//	             bitmap, and the winner is queued. Claims become final at
//	             the level boundary, when the engine gathers the queues and
//	             calls Activate(dst) for each claimed vertex.
//	pull level:  each worker takes PullProbe(w, frontier) once; for every
//	             vertex v whose bit is set in PullCandidates, the probe is
//	             called with v's backward neighbors until it returns false
//	             (early exit), then EndPull(w, v) if the probe left work
//	             pending; a true return marks v claimed immediately.
//	boundary:    EndLevel(level), then Converged() is consulted; a level
//	             claiming nothing also terminates the run.
//
// # State ownership
//
// The program owns all per-vertex state and any per-worker scratch
// (indexed by the simulated worker id w). During a push level the state of
// frontier vertices must be treated as frozen — PushEdges may run
// concurrently from many workers and must use atomic idempotent updates
// (min-CAS and friends) on destination state so results are independent of
// worker count and I/O completion order. During a pull level the engine
// guarantees each candidate v is visited by exactly one worker (bitmap
// words are worker-exclusive), so EndPull may write v's state plainly.
//
// # Direction hints
//
// Hint lets a program bias or pin the sweep direction: HintAuto defers to
// the alpha/beta rule (BFS), HintPull forces dense gather sweeps
// (PageRank), and a program may switch hints level by level (connected
// components pulls while the frontier is dense, then lets the rule take
// over). Hints are clamped to the program's declared Caps and are
// overridden by a forced Mode and by degraded-mode pinning, which never
// steers a run back onto a dead device.

// Hint is a program's per-level direction preference.
type Hint int

const (
	// HintAuto defers to the engine's alpha/beta switching rule.
	HintAuto Hint = iota
	// HintPush requests a scatter (top-down) sweep over the forward graph.
	HintPush
	// HintPull requests a gather (bottom-up) sweep over the backward graph.
	HintPull
)

// Caps declares which kernel directions a program implements.
type Caps uint8

const (
	// CapPush marks programs implementing the scatter hooks.
	CapPush Caps = 1 << iota
	// CapPull marks programs implementing the gather hooks.
	CapPull
)

// Program is one vertex algorithm run by the Engine. See the comment at
// the top of this file for the hook order, state-ownership rules, and hint
// semantics.
type Program interface {
	// Name labels the program in reports and errors ("bfs", "cc", ...).
	Name() string
	// Caps declares the implemented kernel directions.
	Caps() Caps
	// Monotone reports whether an activation is permanent (BFS: a claimed
	// vertex never re-enters the frontier). A monotone program's claim
	// bits stay set until the next Run, so the gather boundary skips
	// clearing them, and the degraded-mode rescue seeds a failed kernel's
	// partial claims — the re-run skips them. A non-monotone program's
	// claim bits are cleared at gather time so a vertex can re-activate in
	// a later level, and its partial claims are discarded on a rescue:
	// the idempotent state updates let the re-run recompute them exactly
	// once.
	Monotone() bool
	// Setup sizes the program's state for n vertices and workers simulated
	// workers. Called once by NewEngine.
	Setup(n int64, workers int)
	// Reset re-initializes the state for a run from root (programs that
	// ignore the root accept any value).
	Reset(root int64) error
	// InitialFrontier emits the level-0 frontier in ascending vertex order.
	InitialFrontier(root int64, emit func(v int64))
	// Hint returns the program's direction preference for level, given the
	// current frontier size.
	Hint(level int, frontier int64) Hint
	// PushEdges processes the frontier edges src -> dst for every dst in
	// dsts, in order, during a push level, and passes each dst that should
	// join the next frontier to claims.Claim. One call per frontier vertex
	// keeps the per-edge loop inside the program. May run concurrently;
	// state updates must be atomic and idempotent.
	PushEdges(w int, src int64, dsts []int64, claims *Claims)
	// PullCandidates returns the mask of vertices 64*word ... 64*word+63
	// that a pull level must examine (bits past the last vertex are
	// ignored).
	PullCandidates(word int) uint64
	// PullProbe returns worker w's probe for one pull level, with an
	// empty accumulator. The engine calls it with every backward neighbor
	// nb of the current candidate, in scan order, until it returns false
	// (early exit); frontier is the worker's node-local replica of the
	// current frontier. pending reports whether the accumulator holds
	// anything for EndPull: the engine finalizes a candidate only while
	// *pending is true, or every candidate when pending is nil. Skipping
	// the call for candidates that found nothing keeps the per-vertex
	// cost of the pull kernel at the scan itself.
	PullProbe(w int, frontier *bitmap.Atomic) (probe func(nb int64) bool, pending *bool)
	// EndPull finalizes candidate v from worker w's accumulator, leaves
	// the accumulator empty (and its pending flag false) for the next
	// candidate, and reports whether v was claimed (changed).
	EndPull(w int, v int64) bool
	// Activate finalizes a push-level claim of v at the gather boundary.
	Activate(v int64)
	// EndLevel runs at the level boundary, single-threaded (double-buffer
	// swaps, residual reductions).
	EndLevel(level int)
	// Converged reports whether the run may stop even though the last
	// level still claimed vertices (tolerance tests, iteration caps).
	Converged() bool
}

// Claims is one worker's push-level claim sink. Claim enters dst into the
// engine's claim bitmap and queues it for the next frontier when this call
// wins the TestAndSet; the engine charges each attempt and each win.
type Claims struct {
	bm        *bitmap.Atomic
	next      []int64
	won, lost int64
	_         [2]int64 // one cache line per worker
}

// Claim offers dst for the next frontier.
func (c *Claims) Claim(dst int64) {
	if c.bm.TestAndSet(int(dst)) {
		c.next = append(c.next, dst)
		c.won++
	} else {
		c.lost++
	}
}
