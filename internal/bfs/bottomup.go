package bfs

import (
	"math/bits"

	"semibfs/internal/numa"
	"semibfs/internal/vtime"
)

// wordRangeOf returns the half-open range of 64-bit bitmap word indices
// whose *base bit* falls inside node k's vertex range. A word straddling a
// node boundary is owned by the node of its base bit; the owning worker
// delegates the spill-over vertices to the right node's CSR (the scanners
// accept any node index), so every vertex is examined by exactly one
// worker and all next/program-state word writes stay word-exclusive. The
// Engine's and BatchRunner's bottom-up kernels share this ownership.
func wordRangeOf(part *numa.Partition, k int) (lo, hi int) {
	sLo, sHi := part.Range(k)
	lo = (sLo + 63) / 64
	if k == 0 {
		lo = 0
	}
	hi = (sHi + 63) / 64
	return lo, hi
}

// runBottomUpLevel expands one level in the bottom-up (pull) direction:
// every candidate vertex the program names scans its neighbor list
// (highest-degree first when the backward graph was built with the NETAL
// ordering) through the program's probe until the probe terminates the
// scan early — for BFS, at the first neighbor found in the frontier, which
// becomes the parent (Section III-B) — and EndPull decides the claim of
// every candidate the probe left pending.
func (e *Engine) runBottomUpLevel() error {
	cm := &e.cfg.Cost
	n := int(e.n)
	return e.parallel(func(w int) error {
		k := e.nodeOfWorker(w)
		j := w % e.cpn
		clock := e.clocks[w]
		scanner := e.scanners[w]
		acc := &e.acc[w]
		prog := e.prog
		// One probe closure per worker per level: allocating it inside
		// the vertex loop would cost one heap allocation per scanned
		// vertex (real GC pressure at scale).
		probe, pending := prog.PullProbe(w, e.frontBM[k])
		wordLo, wordHi := wordRangeOf(e.part, k)
		edgeCost := cm.EdgeCompute + cm.BitmapProbe
		for wi := wordLo + j; wi < wordHi; wi += e.cpn {
			var t vtime.Duration
			t += cm.Stream(8) // candidate word load
			cand := prog.PullCandidates(wi)
			base := wi * 64
			if base+64 > n {
				cand &= (1 << uint(n-base)) - 1
			}
			for cand != 0 {
				bit := bits.TrailingZeros64(cand)
				cand &= cand - 1
				v := int64(base + bit)
				t += cm.VertexOverhead
				clock.Advance(t)
				t = 0
				// Delegate straddling vertices to their owner
				// node's CSR.
				vk := k
				if v < int64(e.part.Starts[k]) || v >= int64(e.part.Starts[k+1]) {
					vk = e.part.NodeOf(int(v))
				}
				dram, nvmEdges, err := scanner.Scan(vk, v, probe)
				if err != nil {
					return err
				}
				examined := dram + nvmEdges
				t += edgeCost * vtime.Duration(examined)
				t += cm.Stream(int(dram) * 8)
				acc.examinedDRAM += dram
				acc.examinedNVM += nvmEdges
				if (pending == nil || *pending) && prog.EndPull(w, v) {
					e.nextBM.Set(int(v))
					t += cm.LocalAccess + 2*cm.BitmapProbe
					acc.claimed++
				}
			}
			clock.Advance(t)
		}
		return nil
	})
}
