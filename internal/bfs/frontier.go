package bfs

import (
	"fmt"
	"math/bits"
	"sort"

	"semibfs/internal/vtime"
)

// promoteNext installs the level's output (per-worker queues after a
// top-down level, the next bitmap after a bottom-up level) as the frontier
// in the representation matching dir. Direction switches are handled
// afterwards by convertFrontier.
//
// Invariant maintained across levels: whenever the current direction is
// top-down, the per-node frontier bitmap replicas are all-clear.
func (e *Engine) promoteNext(dir Direction) error {
	if dir == TopDown {
		return e.gatherQueues()
	}
	return e.replicateNextBitmap()
}

// convertFrontier rewrites the current frontier from the representation of
// direction from into the representation of direction to.
func (e *Engine) convertFrontier(from, to Direction) error {
	switch {
	case from == TopDown && to == BottomUp:
		return e.queueToReplicas()
	case from == BottomUp && to == TopDown:
		return e.replicasToQueue()
	default:
		return fmt.Errorf("bfs: bad frontier conversion %v -> %v", from, to)
	}
}

// gatherQueues concatenates the per-worker next queues into the frontier
// queue, finalizes the gathered claims (Program.Activate), and sorts the
// frontier ascending. Each worker copies its own output at a precomputed
// offset, so the copy itself parallelizes; the bytes moved are charged as
// streams.
//
// This is the level boundary where push claims become final — for BFS,
// where they become visited: the top-down kernel freezes the visited
// bitmap while a level runs so the parent choice is a deterministic min
// over the frontier (see runTopDownLevel). A monotone program's claim bits
// stay set (one bitmap probe per claim, the activation); a non-monotone
// program's are cleared so the vertex can re-activate later (a second
// probe). Sorting keeps the semi-external forward reads in
// adjacency-offset order — sequential, coalescible NVM runs for the
// prefetcher — and makes the frontier layout independent of which worker
// won each claim.
func (e *Engine) gatherQueues() error {
	total := 0
	offs := e.offsScratch
	for w := 0; w < e.nWorkers; w++ {
		offs[w] = total
		total += len(e.nextQ[w])
	}
	offs[e.nWorkers] = total
	if cap(e.frontQ) < total {
		e.frontQ = make([]int64, total)
	}
	e.frontQ = e.frontQ[:total]
	probes := vtime.Duration(1)
	if !e.monotone {
		probes = 2
	}
	err := e.parallel(func(w int) error {
		q := e.nextQ[w]
		if len(q) > 0 {
			copy(e.frontQ[offs[w]:offs[w+1]], q)
			for _, v := range q {
				e.prog.Activate(v)
				if !e.monotone {
					e.claimBM.Clear(int(v))
				}
			}
			// Read + write of the vertex IDs, plus the activation marks
			// (and claim-bit clears).
			e.clocks[w].Advance(e.cfg.Cost.Stream(len(q)*16) +
				vtime.Duration(len(q))*probes*e.cfg.Cost.BitmapProbe)
		}
		e.nextQ[w] = q[:0]
		return nil
	})
	if err != nil {
		return err
	}
	sort.Slice(e.frontQ, func(i, j int) bool { return e.frontQ[i] < e.frontQ[j] })
	if total > 0 {
		// Modeled as one parallel merge pass over the gathered IDs.
		per := e.cfg.Cost.Stream(total * 16 / e.nWorkers)
		for _, c := range e.clocks {
			c.Advance(per)
		}
	}
	return nil
}

// replicateNextBitmap copies the next bitmap into every NUMA node's
// frontier replica and clears it. This is the per-level frontier broadcast
// that buys the bottom-up kernel its purely node-local frontier probes.
func (e *Engine) replicateNextBitmap() error {
	words := e.nextBM.Words()
	nw := len(words)
	return e.parallel(func(w int) error {
		lo, hi := stripe(nw, e.nWorkers, w)
		if lo >= hi {
			return nil
		}
		var t vtime.Duration
		for _, bm := range e.frontBM {
			dst := bm.Words()
			copy(dst[lo:hi], words[lo:hi])
			t += e.cfg.Cost.Stream((hi - lo) * 8 * 2)
		}
		for i := lo; i < hi; i++ {
			words[i] = 0
		}
		t += e.cfg.Cost.Stream((hi - lo) * 8)
		e.clocks[w].Advance(t)
		return nil
	})
}

// queueToReplicas sets the frontier queue's vertices in every node's
// frontier bitmap replica (top-down -> bottom-up switch).
func (e *Engine) queueToReplicas() error {
	return e.parallel(func(w int) error {
		lo, hi := stripe(len(e.frontQ), e.nWorkers, w)
		if lo >= hi {
			return nil
		}
		var t vtime.Duration
		t += e.cfg.Cost.Stream((hi - lo) * 8)
		probes := vtime.Duration(len(e.frontBM)) * e.cfg.Cost.BitmapProbe
		for _, v := range e.frontQ[lo:hi] {
			for _, bm := range e.frontBM {
				bm.Set(int(v))
			}
			t += probes
		}
		e.clocks[w].Advance(t)
		return nil
	})
}

// replicasToQueue extracts the frontier from the bitmap replicas into the
// frontier queue and clears all replicas (bottom-up -> top-down switch).
func (e *Engine) replicasToQueue() error {
	src := e.frontBM[0]
	nw := src.NumWords()
	err := e.parallel(func(w int) error {
		lo, hi := stripe(nw, e.nWorkers, w)
		q := e.nextQ[w][:0]
		var t vtime.Duration
		for i := lo; i < hi; i++ {
			t += e.cfg.Cost.Stream(8)
			word := src.WordAt(i)
			base := i * 64
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				q = append(q, int64(base+b))
				t += e.cfg.Cost.QueueAppend
			}
		}
		e.nextQ[w] = q
		// Clear this stripe in every replica.
		for _, bm := range e.frontBM {
			dst := bm.Words()
			for i := lo; i < hi; i++ {
				dst[i] = 0
			}
		}
		t += e.cfg.Cost.Stream((hi - lo) * 8 * len(e.frontBM))
		e.clocks[w].Advance(t)
		return nil
	})
	if err != nil {
		return err
	}
	return e.gatherQueues()
}

// stripe splits n items into nWorkers nearly-equal contiguous ranges and
// returns worker w's half-open range.
func stripe(n, nWorkers, w int) (lo, hi int) {
	base, rem := n/nWorkers, n%nWorkers
	lo = w*base + min(w, rem)
	hi = lo + base
	if w < rem {
		hi++
	}
	return lo, hi
}
