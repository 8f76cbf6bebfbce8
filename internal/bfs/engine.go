package bfs

import (
	"fmt"
	"runtime"
	"sync"

	"semibfs/internal/bitmap"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// Direction is a BFS search direction.
type Direction int

// The two search directions of the hybrid algorithm.
const (
	TopDown Direction = iota
	BottomUp
)

func (d Direction) String() string {
	if d == TopDown {
		return "top-down"
	}
	return "bottom-up"
}

// Mode selects the traversal policy.
type Mode int

const (
	// ModeHybrid switches directions by the alpha/beta rule (the paper's
	// algorithm).
	ModeHybrid Mode = iota
	// ModeTopDownOnly forces the conventional top-down BFS.
	ModeTopDownOnly
	// ModeBottomUpOnly forces bottom-up at every level.
	ModeBottomUpOnly
)

func (m Mode) String() string {
	switch m {
	case ModeHybrid:
		return "hybrid"
	case ModeTopDownOnly:
		return "top-down-only"
	case ModeBottomUpOnly:
		return "bottom-up-only"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes a Runner.
type Config struct {
	// Topology is the simulated machine; zero selects the paper's
	// 4x12-core testbed.
	Topology numa.Topology
	// Cost is the memory-system cost model; zero selects the calibrated
	// default.
	Cost numa.CostModel
	// Alpha is the top-down -> bottom-up switching threshold: switch
	// when the frontier grew and exceeds N/Alpha vertices.
	Alpha float64
	// Beta is the bottom-up -> top-down threshold: switch back when the
	// frontier shrank below N/Beta vertices.
	Beta float64
	// Mode selects hybrid or single-direction traversal.
	Mode Mode
	// RealWorkers bounds the number of real goroutines executing the
	// simulated workers; 0 selects GOMAXPROCS.
	RealWorkers int
}

// WithDefaults returns c with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.Topology.Nodes == 0 {
		c.Topology = numa.DefaultTopology
	}
	if c.Cost == (numa.CostModel{}) {
		c.Cost = numa.DefaultCostModel
	}
	if c.Alpha == 0 {
		c.Alpha = 1e4
	}
	if c.Beta == 0 {
		c.Beta = 10 * c.Alpha
	}
	if c.RealWorkers <= 0 {
		c.RealWorkers = runtime.GOMAXPROCS(0)
	}
	return c
}

// LevelStats records one BFS level's activity.
type LevelStats struct {
	Level     int
	Direction Direction
	// Frontier is the number of vertices in the level's frontier.
	Frontier int64
	// FrontierDegree is the summed degree of the frontier vertices,
	// computed for top-down levels (-1 for bottom-up levels).
	FrontierDegree int64
	// ExaminedDRAM / ExaminedNVM count neighbor IDs examined from each
	// tier during the level.
	ExaminedDRAM int64
	ExaminedNVM  int64
	// Claimed is the number of vertices newly added to the BFS tree.
	Claimed int64
	// Time is the level's virtual duration; Start its virtual start.
	Time  vtime.Duration
	Start vtime.Duration
}

// Examined returns the level's total examined neighbor IDs.
func (l LevelStats) Examined() int64 { return l.ExaminedDRAM + l.ExaminedNVM }

// AvgDegree returns the frontier's average degree, or 0 when unknown.
func (l LevelStats) AvgDegree() float64 {
	if l.Frontier <= 0 || l.FrontierDegree < 0 {
		return 0
	}
	return float64(l.FrontierDegree) / float64(l.Frontier)
}

// Result is one engine run's outcome. The per-vertex output of a program
// other than BFS (labels, ranks) stays with the Program.
type Result struct {
	Root int64
	// Visited counts the initial frontier plus every claim: for BFS, the
	// vertices reached; for a non-monotone program, activations, which
	// may count a vertex more than once.
	Visited int64
	// Tree aliases the Runner's parent array and is valid until the
	// next Run call; use CloneTree to keep it. Nil for Engine.Run.
	Tree []int64
	// Levels records per-level activity: push levels are TopDown, pull
	// levels BottomUp.
	Levels []LevelStats
	Time   vtime.Duration
	// ExaminedTD / ExaminedBU / ExaminedNVM count neighbor IDs examined
	// by push levels, by pull levels, and from NVM overall.
	ExaminedTD  int64
	ExaminedBU  int64
	ExaminedNVM int64
	// Switches counts direction changes (including degraded rescues).
	Switches int
	// Converged reports whether the program's convergence test ended the
	// run (false when the frontier simply drained, as it always does for
	// BFS).
	Converged bool
	// Resilience summarizes the run's fault handling (zero for a healthy
	// run over healthy devices). Its counters are views over Layers.
	Resilience Resilience
	// Cache summarizes the run's page-cache activity (zero when no cache
	// is configured). It is a view over Layers.
	Cache nvm.CacheStats
	// Layers holds the per-run delta of every storage-stack layer's
	// counters (retry, cache, mirror, checksum, fault injection, ...),
	// aggregated across the forward and backward graphs' stacks. Nil for
	// fully DRAM-resident graphs.
	Layers nvm.StackStats
}

// CloneTree returns a copy of the parent array.
func (r *Result) CloneTree() []int64 {
	return append([]int64(nil), r.Tree...)
}

// TDLevels returns the statistics of the top-down levels only.
func (r *Result) TDLevels() []LevelStats {
	var out []LevelStats
	for _, l := range r.Levels {
		if l.Direction == TopDown {
			out = append(out, l)
		}
	}
	return out
}

// Engine executes vertex programs over one forward/backward graph pair,
// reusing all traversal state (frontier queue, bitmap replicas, claim
// bitmap, worker clocks) across runs — with BFS, the structures whose
// sizes Table II reports. See program.go for the Program contract.
type Engine struct {
	fwd      ForwardAccess
	bwd      BackwardAccess
	part     *numa.Partition
	prog     Program
	monotone bool
	cfg      Config
	n        int64

	nWorkers int
	cpn      int // cores per node

	// claimBM arbitrates next-queue membership during a push level: the
	// program's idempotent PushEdges update makes the claim, Claims'
	// TestAndSet picks exactly one worker to enqueue the vertex. For a monotone
	// program a stale bit always belongs to a by-now-settled vertex, so
	// bits stay set until Run resets them; a non-monotone program's bits
	// are cleared at gather time so the vertex can re-activate.
	claimBM *bitmap.Atomic
	frontBM []*bitmap.Atomic // per-node frontier replicas
	nextBM  *bitmap.Bitmap
	frontQ  []int64
	nextQ   [][]int64 // per-worker output queues
	claims  []Claims  // per-worker push claim sinks over claimBM

	clocks   []*vtime.Clock
	cursors  []ForwardCursor
	scanners []BackwardScan
	barrier  *vtime.Barrier

	// Degraded-mode state: after a device failure is rescued mid-run the
	// controller pins to the surviving direction for the rest of the run.
	pinned    bool
	pinnedDir Direction

	// per-level, per-worker accumulators
	acc []workerAcc

	// offsScratch is gatherQueues's prefix-sum scratch, kept across
	// levels so deep traversals don't allocate per level.
	offsScratch []int
}

type workerAcc struct {
	examinedDRAM int64
	examinedNVM  int64
	claimed      int64
	frontierDeg  int64
	_pad         [4]int64 // avoid false sharing between workers
}

// NewEngine prepares an Engine running prog over the given graphs. It
// calls prog.Setup once; a Program instance belongs to one Engine.
func NewEngine(fwd ForwardAccess, bwd BackwardAccess, part *numa.Partition, prog Program, cfg Config) (*Engine, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if part.Topology != cfg.Topology {
		return nil, fmt.Errorf("bfs: partition topology %+v != config topology %+v",
			part.Topology, cfg.Topology)
	}
	caps := prog.Caps()
	if caps&(CapPush|CapPull) == 0 {
		return nil, fmt.Errorf("bfs: program %q implements no kernel direction", prog.Name())
	}
	if cfg.Mode == ModeTopDownOnly && caps&CapPush == 0 {
		return nil, fmt.Errorf("bfs: program %q cannot run top-down-only (no push kernel)", prog.Name())
	}
	if cfg.Mode == ModeBottomUpOnly && caps&CapPull == 0 {
		return nil, fmt.Errorf("bfs: program %q cannot run bottom-up-only (no pull kernel)", prog.Name())
	}
	n := int64(part.N)
	nw := cfg.Topology.TotalCores()
	e := &Engine{
		fwd:      fwd,
		bwd:      bwd,
		part:     part,
		prog:     prog,
		monotone: prog.Monotone(),
		cfg:      cfg,
		n:        n,
		nWorkers: nw,
		cpn:      cfg.Topology.CoresPerNode,
		claimBM:  bitmap.NewAtomic(int(n)),
		nextBM:   bitmap.New(int(n)),
		nextQ:    make([][]int64, nw),
		claims:   make([]Claims, nw),
		clocks:   make([]*vtime.Clock, nw),
		cursors:  make([]ForwardCursor, nw),
		scanners: make([]BackwardScan, nw),
		barrier:  vtime.NewBarrier(cfg.Cost.Barrier),
		acc:      make([]workerAcc, nw),

		offsScratch: make([]int, nw+1),
	}
	e.frontBM = make([]*bitmap.Atomic, cfg.Topology.Nodes)
	for k := range e.frontBM {
		e.frontBM[k] = bitmap.NewAtomic(int(n))
	}
	for w := 0; w < nw; w++ {
		e.claims[w].bm = e.claimBM
		e.clocks[w] = vtime.NewClock(0)
		e.cursors[w] = fwd.NewCursor(e.clocks[w])
		e.scanners[w] = bwd.NewScanner(e.clocks[w])
		e.nextQ[w] = make([]int64, 0, 1024)
	}
	prog.Setup(n, nw)
	return e, nil
}

// statusBytes returns the DRAM footprint of the engine-owned traversal
// state (bitmaps and queues); the program's per-vertex state is extra.
func (e *Engine) statusBytes() int64 {
	b := (e.n + 7) / 8                           // claim bitmap
	b += int64(len(e.frontBM)) * ((e.n + 7) / 8) // frontier replicas
	b += (e.n + 7) / 8                           // next bitmap
	b += int64(cap(e.frontQ)) * 8                // frontier queue
	for _, q := range e.nextQ {
		b += int64(cap(q)) * 8
	}
	return b
}

// parallel runs fn(w) for every simulated worker w, multiplexed over the
// configured number of real goroutines. Errors are collected; the first
// non-nil one is returned.
func (e *Engine) parallel(fn func(w int) error) error {
	return runParallel(e.nWorkers, e.cfg.RealWorkers, fn)
}

// runParallel multiplexes nWorkers simulated workers over at most
// realWorkers goroutines, assigning worker w to goroutine w % real so the
// simulated-worker -> work mapping (and thus every virtual clock) is
// independent of the real parallelism. Shared by Engine and BatchRunner.
func runParallel(nWorkers, realWorkers int, fn func(w int) error) error {
	real := realWorkers
	if real > nWorkers {
		real = nWorkers
	}
	if real <= 1 {
		for w := 0; w < nWorkers; w++ {
			if err := fn(w); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, real)
	var wg sync.WaitGroup
	for g := 0; g < real; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for w := g; w < nWorkers; w += real {
				if err := fn(w); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// nodeOfWorker returns the NUMA node simulated worker w runs on.
func (e *Engine) nodeOfWorker(w int) int { return w / e.cpn }

// clamp restricts dir to the program's capabilities.
func (e *Engine) clamp(dir Direction) Direction {
	caps := e.prog.Caps()
	if dir == TopDown && caps&CapPush == 0 {
		return BottomUp
	}
	if dir == BottomUp && caps&CapPull == 0 {
		return TopDown
	}
	return dir
}

// decide picks the next level's direction: degraded pinning first (the
// alpha/beta rule must never steer the traversal back onto a dead device),
// then a forced mode, then the program's hint, then the Section III-C
// switching rule on the frontier sizes of the previous two levels — all
// clamped to the program's kernels.
func (e *Engine) decide(cur Direction, level int, prevCount, curCount int64) Direction {
	if e.pinned {
		return e.pinnedDir
	}
	switch e.cfg.Mode {
	case ModeTopDownOnly:
		return TopDown
	case ModeBottomUpOnly:
		return BottomUp
	}
	switch e.prog.Hint(level, curCount) {
	case HintPush:
		return e.clamp(TopDown)
	case HintPull:
		return e.clamp(BottomUp)
	}
	switch cur {
	case TopDown:
		if curCount > prevCount && float64(curCount) > float64(e.n)/e.cfg.Alpha {
			return e.clamp(BottomUp)
		}
	case BottomUp:
		if curCount < prevCount && float64(curCount) < float64(e.n)/e.cfg.Beta {
			return e.clamp(TopDown)
		}
	}
	return e.clamp(cur)
}

// initialDirection picks level 0's direction: a forced mode wins, then the
// program's level-0 hint, then top-down (the paper's rule: BFS always
// starts top-down from the source vertex).
func (e *Engine) initialDirection(count int64) Direction {
	switch e.cfg.Mode {
	case ModeTopDownOnly:
		return TopDown
	case ModeBottomUpOnly:
		return BottomUp
	}
	if e.prog.Hint(0, count) == HintPull {
		return e.clamp(BottomUp)
	}
	return e.clamp(TopDown)
}

// Run executes one program run from root (ignored by unrooted programs)
// and returns its result. Per-vertex output stays with the Program.
func (e *Engine) Run(root int64) (*Result, error) {
	if err := e.prog.Reset(root); err != nil {
		return nil, err
	}
	// Reset traversal state (setup is not charged to the run's time,
	// matching the Graph500 timing protocol which starts the clock at
	// traversal).
	e.claimBM.Reset()
	e.nextBM.Reset()
	for _, bm := range e.frontBM {
		bm.Reset()
	}
	e.frontQ = e.frontQ[:0]
	for w := range e.nextQ {
		e.nextQ[w] = e.nextQ[w][:0]
	}
	for _, c := range e.clocks {
		c.AdvanceTo(0)
	}
	e.pinned = false
	// Stack-layer counters accumulate across runs; per-run figures are
	// deltas against this snapshot.
	layers0 := e.layerTotals()
	start := e.clocks[0].Now()

	res := &Result{Root: root}
	e.prog.InitialFrontier(root, func(v int64) { e.frontQ = append(e.frontQ, v) })
	curCount := int64(len(e.frontQ))
	res.Visited = curCount
	if curCount == 0 {
		e.finish(res, start, layers0)
		return res, nil
	}
	dir := e.initialDirection(curCount)
	if dir == BottomUp {
		if curCount == 1 {
			// A single source vertex is placed as part of setup, like
			// the root's tree entry; a dense initial frontier pays its
			// conversion like any direction switch.
			for _, bm := range e.frontBM {
				bm.Set(int(e.frontQ[0]))
			}
			e.frontQ = e.frontQ[:0]
		} else if err := e.convertFrontier(TopDown, BottomUp); err != nil {
			return nil, err
		}
	}
	prevCount := int64(0)

	for level := 0; ; level++ {
		if level > int(e.n)+64 {
			// Any frontier program settles within n levels; the slack
			// covers fixed-point programs on tiny graphs.
			return nil, fmt.Errorf("bfs: %s: level %d exceeds vertex count without converging",
				e.prog.Name(), level)
		}
		newDir := dir
		if level > 0 {
			// Switching is evaluated from level 1 on, comparing the
			// frontier sizes of the last two levels.
			newDir = e.decide(dir, level, prevCount, curCount)
		}
		if newDir != dir {
			if err := e.convertFrontier(dir, newDir); err != nil {
				return nil, err
			}
			res.Switches++
			dir = newDir
		}
		runLevel := func() error {
			for w := range e.acc {
				e.acc[w] = workerAcc{}
			}
			if dir == TopDown {
				return e.runTopDownLevel()
			}
			return e.runBottomUpLevel()
		}
		levelStart := vtime.MaxOf(e.clocks)
		var seeded int64
		if err := runLevel(); err != nil {
			// A level kernel failed — usually a device declared dead
			// after exhausting retries. If the program implements the
			// other direction and that direction's graph is
			// DRAM-resident, rescue the level: keep the claims already
			// made (monotone programs), convert the frontier, and re-run
			// the remainder of the level in the surviving direction,
			// pinned for the rest of the run.
			to, ok := e.degradeTarget(dir)
			if !ok {
				return nil, fmt.Errorf("bfs: %s: level %d (%s): %w", e.prog.Name(), level, dir, err)
			}
			cause := err
			seeded, err = e.enterDegraded(dir, to)
			if err != nil {
				return nil, fmt.Errorf("bfs: %s: level %d: degrading %s -> %s: %w",
					e.prog.Name(), level, dir, to, err)
			}
			res.Resilience.Degraded = append(res.Resilience.Degraded, DegradedEvent{
				Level: level, From: dir, To: to, Cause: cause.Error(),
			})
			e.pinned, e.pinnedDir = true, to
			dir = to
			res.Switches++
			if err := runLevel(); err != nil {
				return nil, fmt.Errorf("bfs: %s: level %d (%s, degraded): %w",
					e.prog.Name(), level, dir, err)
			}
		}
		levelEnd := e.barrier.Sync(e.clocks)

		ls := LevelStats{
			Level:     level,
			Direction: dir,
			Frontier:  curCount,
			Start:     levelStart,
			Time:      levelEnd - levelStart,
		}
		if dir == TopDown {
			for w := range e.acc {
				ls.FrontierDegree += e.acc[w].frontierDeg
			}
		} else {
			ls.FrontierDegree = -1
		}
		// seeded counts claims made by a failed kernel before this level
		// degraded (monotone programs only); their state is already set
		// but the re-run's accumulators never saw them.
		claimed := seeded
		for w := range e.acc {
			ls.ExaminedDRAM += e.acc[w].examinedDRAM
			ls.ExaminedNVM += e.acc[w].examinedNVM
			claimed += e.acc[w].claimed
		}
		ls.Claimed = claimed
		res.Levels = append(res.Levels, ls)
		res.Visited += claimed
		if dir == TopDown {
			res.ExaminedTD += ls.Examined()
		} else {
			res.ExaminedBU += ls.Examined()
		}
		res.ExaminedNVM += ls.ExaminedNVM

		e.prog.EndLevel(level)
		if claimed == 0 {
			break
		}
		if e.prog.Converged() {
			res.Converged = true
			break
		}
		if err := e.promoteNext(dir); err != nil {
			return nil, err
		}
		prevCount, curCount = curCount, claimed
	}
	e.finish(res, start, layers0)
	return res, nil
}

// finish fills the result's run-wide time and storage-layer views.
func (e *Engine) finish(res *Result, start vtime.Duration, layers0 nvm.StackStats) {
	res.Time = vtime.MaxOf(e.clocks) - start
	res.Layers = e.layerTotals().Sub(layers0)
	// The summary fields are views over the generic layer deltas.
	res.Resilience.fromLayers(res.Layers)
	res.Resilience.Devices = e.deviceHealth()
	res.Cache = res.Layers.CacheView()
}
