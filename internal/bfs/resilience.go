package bfs

import (
	"math/bits"

	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// DegradedEvent records one mid-run degradation: a level whose kernel
// failed on NVM and was re-run on the DRAM-resident direction, which the
// run then stays pinned to.
type DegradedEvent struct {
	// Level is the BFS level whose kernel failed.
	Level int
	// From is the direction that failed; To is the DRAM-resident
	// direction the controller pinned to.
	From, To Direction
	// Cause is the failing error's message.
	Cause string
}

// Resilience summarizes one run's fault handling: the retries and
// virtual-time backoff absorbed by the semi-external read path, and any
// degradations the controller performed.
type Resilience struct {
	// Retries / ReadErrors count reissued reads and failed attempts.
	Retries    int64
	ReadErrors int64
	// BackoffTime is the virtual time spent backing off before retries.
	BackoffTime vtime.Duration
	// Failovers counts mirror reads redirected to another replica after a
	// replica failure (zero without a device array).
	Failovers int64
	// ScrubbedBlocks / RepairedBlocks count the background scrubber's
	// verified and rewritten blocks during the run.
	ScrubbedBlocks int64
	RepairedBlocks int64
	// RepairTime is the virtual time spent repairing corrupt or stale
	// blocks (mean repair latency = RepairTime / RepairedBlocks).
	RepairTime vtime.Duration
	// Devices is the per-device health at the end of the run, merged
	// across the mirrored stores (nil without a device array).
	Devices []nvm.ReplicaHealth
	// Degraded lists the levels that had to switch direction after a
	// device failure (empty for a healthy run).
	Degraded []DegradedEvent
}

// DegradedLevels returns the number of degradation events.
func (r *Resilience) DegradedLevels() int { return len(r.Degraded) }

// DeadDevices returns how many devices finished the run dead.
func (r *Resilience) DeadDevices() int {
	n := 0
	for _, d := range r.Devices {
		if d.State == nvm.ReplicaDead {
			n++
		}
	}
	return n
}

// stacksOf returns every NVM storage stack behind a forward/backward graph
// pair, or nil when both are fully DRAM-resident. Shared by Engine and
// BatchRunner.
func stacksOf(fwd ForwardAccess, bwd BackwardAccess) []nvm.Storage {
	var out []nvm.Storage
	if s, ok := fwd.(StorageStacks); ok {
		out = append(out, s.Stacks()...)
	}
	if s, ok := bwd.(StorageStacks); ok {
		out = append(out, s.Stacks()...)
	}
	return out
}

// backwardNVMOf reports whether a backward graph has NVM-resident data.
// Unknown placements count as NVM so the engine never degrades into a
// direction it cannot prove is DRAM-resident.
func backwardNVMOf(bwd BackwardAccess) bool {
	if b, ok := bwd.(BackwardNVM); ok {
		return b.OnNVM()
	}
	return true
}

// fromLayers fills the legacy Resilience summary counters as views over the
// generic per-layer deltas.
func (r *Resilience) fromLayers(layers nvm.StackStats) {
	r.Retries = layers.Get("retry", "retries")
	r.ReadErrors = layers.Get("retry", "read_errors")
	r.BackoffTime = vtime.Duration(layers.Get("retry", "backoff_ns"))
	r.Failovers = layers.Get("mirror", "failovers")
	r.ScrubbedBlocks = layers.Get("mirror", "scrubbed_blocks")
	r.RepairedBlocks = layers.Get("mirror", "repaired_blocks")
	r.RepairTime = vtime.Duration(layers.Get("mirror", "repair_ns"))
}

// stacks returns every NVM storage stack behind the engine's graphs
// (forward and backward), or nil when both are fully DRAM-resident.
func (e *Engine) stacks() []nvm.Storage { return stacksOf(e.fwd, e.bwd) }

// layerTotals collects the cumulative per-layer counters of every stack.
func (e *Engine) layerTotals() nvm.StackStats {
	return nvm.CollectStacks(e.stacks()...)
}

// deviceHealth merges per-device replica health across every stack's
// mirror layer, or nil without mirroring.
func (e *Engine) deviceHealth() []nvm.ReplicaHealth {
	return nvm.CollectReplicaHealth(e.stacks()...)
}

// degradeTarget decides whether a failed level can be rescued by switching
// to the other direction: only in hybrid mode (a forced single-direction
// mode is a contract, not a preference), only once per run, only when the
// program implements the target kernel, and only when the target
// direction's graph is fully DRAM-resident — the paper's §V-C placement
// keeps the backward graph in DRAM precisely so the bottom-up direction
// survives a forward-device failure.
func (e *Engine) degradeTarget(from Direction) (Direction, bool) {
	if e.cfg.Mode != ModeHybrid || e.pinned {
		return 0, false
	}
	caps := e.prog.Caps()
	if from == TopDown && caps&CapPull != 0 && !backwardNVMOf(e.bwd) {
		return BottomUp, true
	}
	if from == BottomUp && caps&CapPush != 0 && !e.fwd.OnNVM() {
		return TopDown, true
	}
	return 0, false
}

// enterDegraded rescues a partially-executed level so it can be re-run in
// direction to. For a monotone program the failed kernel's partial claims
// are valid (for BFS, each claimed parent is in the current frontier) and
// their state is final — so they are preserved by seeding them into the
// level's output representation, and the re-run skips them. A
// non-monotone program's partial claims are discarded from the frontier
// accounting (their idempotent state writes stay; the full re-run
// recomputes every claim exactly once, because a pull level examines all
// candidates and a push level reaches every vertex adjacent to the
// frontier). The current frontier is converted to the representation the
// new direction expects. Returns the number of seeded claims.
func (e *Engine) enterDegraded(from, to Direction) (int64, error) {
	var seeded int64
	if from == TopDown {
		// Partial claims live in the per-worker next queues; the
		// bottom-up re-run outputs into the next bitmap. The top-down
		// kernel defers activation to gather time, which this rescue
		// skips, so activate the seeds here or the re-run would claim
		// them a second time.
		for w := range e.nextQ {
			for _, v := range e.nextQ[w] {
				if !e.monotone {
					e.claimBM.Clear(int(v))
					continue
				}
				e.nextBM.Set(int(v))
				e.prog.Activate(v)
				seeded++
			}
			e.nextQ[w] = e.nextQ[w][:0]
		}
		if err := e.convertFrontier(TopDown, BottomUp); err != nil {
			return 0, err
		}
		return seeded, nil
	}
	// Bottom-up failed: convert the frontier first (replicasToQueue uses
	// the next queues as scratch), then move the partial claims from the
	// next bitmap into a worker queue for the top-down promote path, or
	// drop them.
	if err := e.convertFrontier(BottomUp, TopDown); err != nil {
		return 0, err
	}
	words := e.nextBM.Words()
	for i, word := range words {
		base := i * 64
		for e.monotone && word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			e.nextQ[0] = append(e.nextQ[0], int64(base+b))
			seeded++
		}
		words[i] = 0
	}
	return seeded, nil
}
