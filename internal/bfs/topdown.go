package bfs

import "semibfs/internal/vtime"

// chunkSize is the number of frontier vertices a worker dequeues at a
// time, following the paper's Section V-C ("each thread dequeues a fixed
// number (64 in our current implementation) of vertices").
const chunkSize = 64

// runTopDownLevel expands the frontier queue e.frontQ one level in the
// top-down (push) direction. Every NUMA node's workers scan the whole
// frontier, but against the node's own forward-graph replica, which
// contains only the neighbors the node owns — so every program state
// write is node-local (the NETAL delegation scheme of Section IV-A).
//
// Claims are deterministic: the program makes an idempotent atomic state
// update per edge (for BFS, a min-CAS parent claim against a visited
// bitmap frozen until gatherQueues) and offers the destinations that
// belong in the next frontier to the worker's Claims, whose TestAndSet on
// e.claimBM picks exactly one worker to enqueue each. A cursor implementing FrontierPrefetcher gets the worker's next
// chunk announced before the current one is scanned, so next-chunk
// readahead overlaps the current chunk's expansion.
func (e *Engine) runTopDownLevel() error {
	cm := &e.cfg.Cost
	numChunks := (len(e.frontQ) + chunkSize - 1) / chunkSize
	return e.parallel(func(w int) error {
		k := e.nodeOfWorker(w)
		j := w % e.cpn
		clock := e.clocks[w]
		cursor := e.cursors[w]
		pf, _ := cursor.(FrontierPrefetcher)
		acc := &e.acc[w]
		claims := &e.claims[w]
		claims.next = e.nextQ[w]
		prog := e.prog
		edgeCost := cm.EdgeCompute + cm.BitmapProbe
		for c := j; c < numChunks; c += e.cpn {
			lo := c * chunkSize
			hi := lo + chunkSize
			if hi > len(e.frontQ) {
				hi = len(e.frontQ)
			}
			if pf != nil {
				// Announce the worker's *next* chunk so its adjacency
				// I/O is in flight while this chunk is expanded. The
				// frontier is sorted, so the spans coalesce into runs.
				if nlo := (c + e.cpn) * chunkSize; nlo < len(e.frontQ) {
					nhi := nlo + chunkSize
					if nhi > len(e.frontQ) {
						nhi = len(e.frontQ)
					}
					pf.PrefetchFrontier(k, e.frontQ[nlo:nhi])
				}
			}
			var t vtime.Duration
			t += cm.Stream((hi - lo) * 8) // dequeue the chunk
			for _, v := range e.frontQ[lo:hi] {
				t += cm.VertexOverhead
				if e.part.NodeOf(int(v)) == k {
					// Statistics only (degree of the frontier
					// vertex, counted once across nodes).
					acc.frontierDeg += e.bwd.Degree(v)
				}
				clock.Advance(t)
				t = 0
				nbs, fromNVM, err := cursor.Neighbors(k, v)
				if err != nil {
					// Publish the claims made so far: their state updates
					// are already applied, and the degraded-mode rescue
					// seeds or discards them per the program's Monotone
					// contract (a BFS tree would otherwise lose subtrees).
					e.nextQ[w] = claims.next
					return err
				}
				if fromNVM {
					acc.examinedNVM += int64(len(nbs))
				} else {
					// Index entry fetch plus the streamed
					// adjacency bytes.
					t += cm.LocalAccess + cm.Stream(len(nbs)*8)
					acc.examinedDRAM += int64(len(nbs))
				}
				claims.won, claims.lost = 0, 0
				prog.PushEdges(w, v, nbs, claims)
				t += edgeCost*vtime.Duration(len(nbs)) +
					vtime.Duration(claims.won)*(cm.AtomicOp+cm.LocalAccess+cm.QueueAppend) +
					vtime.Duration(claims.lost)*cm.AtomicOp
				acc.claimed += claims.won
			}
			clock.Advance(t)
		}
		e.nextQ[w] = claims.next
		return nil
	})
}
