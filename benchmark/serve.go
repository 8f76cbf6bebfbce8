package main

import (
	"fmt"
	"slices"
	"time"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/dyn"
	"semibfs/internal/edgelist"
	"semibfs/internal/numa"
	"semibfs/internal/rng"
	"semibfs/internal/serve"
	"semibfs/internal/validate"
	"semibfs/internal/vtime"
)

// The serving workload's traffic is frozen here. Recalibrating any of
// these per commit would hide exactly the changes the workload exists to
// show; change them only in a change that redefines the benchmark.
const (
	serveLanes    = 16
	serveCache    = 4 << 20
	serveQueries  = 256    // open-loop queries per pass
	serveRate     = 1000.0 // offered load, queries per virtual second
	serveDeadline = 0.050  // per-query deadline (the latency limit), virtual seconds
	serveQueueCap = 256    // bounded admission queue
	closedQueries = 384    // closed-loop queries (traced runs only)
	closedClients = 2 * serveLanes
	updateEvery   = 2 / serveRate // one update batch per two query arrivals
	updateBatch   = 8             // edge updates per batch
	updateBatches = 128           // batches in the stream (one stream per pass)
)

// runServe is the always-on serving workload: a 16-lane MS-BFS server
// over a durable dynamic graph on DRAM+PCIeFlash with a 4 MiB page cache.
// Queries from the giant component arrive in an open loop at serveRate,
// with a deadline and a bounded queue; a seeded insert/delete stream is
// applied through dyn.Graph.Apply at sweep boundaries every updateEvery
// virtual seconds. capacity_qps is the lane-limited throughput, lanes
// over the mean in-lane search time. Every pass runs on a freshly set-up
// system (a round of roundLoop), from virtual time 0 with one update
// clock: dyn.Graph validates updates through a reader bound to the clock
// of its first Apply (see README.md, known defects). After each pass the
// benchmark applies the inverse stream and checks that it cancels every
// pending overlay edit.
func runServe(p params, rec *recorder) (*outcome, error) {
	sc := core.ScenarioPCIeFlash.WithCache(serveCache, 0)
	o := &outcome{}
	layer := zeroLayers()
	var roots []int64
	var us *updates
	var applyWall, updLat, waits []float64
	build := func(list *edgelist.List) (*core.DynamicSystem, error) {
		end := rec.begin("core.BuildDynamic")
		defer end(nil)
		return core.BuildDynamic(edgelist.ListSource{List: list}, numa.DefaultTopology, sc, vtime.NewClock(0))
	}
	init := func(ds *core.DynamicSystem, list *edgelist.List) error {
		src := edgelist.ListSource{List: list}
		if rec != nil {
			layer["generator.wall_s"] = median(rec.durations("generator.Generate"))
			if err := probeBuild(rec, src, sc, layer); err != nil {
				return err
			}
		}
		deg := func(v int64) int64 { return ds.Graph.Backward().Degree(v) }
		var err error
		roots, err = giantRoots(src.NumVertices(), deg, ds.NewRunner, serveQueries+closedQueries, p.Seed)
		us = newUpdates(list, p.Seed)
		return err
	}
	pass := func(ds *core.DynamicSystem, list *edgelist.List, pass, _, _ int) error {
		g := ds.Graph
		for _, d := range ds.Devices {
			d.Reset()
		}
		g.Forward().Cache().Reset()
		deg := func(v int64) int64 { return g.Backward().Degree(v) }
		stream := us.Batches
		uclock := vtime.NewClock(0)
		next := 0
		hook := func(now float64) error {
			if next >= len(stream) || now < float64(next)*updateEvery {
				return nil
			}
			uclock.AdvanceTo(vtime.Duration(now * float64(vtime.Second)))
			v0, t0 := uclock.Now(), time.Now()
			endA := rec.begin("dyn.Graph.Apply")
			n, err := g.Apply(uclock, stream[next])
			endA(nil)
			o.check(err == nil && n == len(stream[next]), "update batch %d: %d of %d applied: %v", next, n, len(stream[next]), err)
			if pass == 0 {
				applyWall = append(applyWall, time.Since(t0).Seconds())
				updLat = append(updLat, (uclock.Now() - v0).Seconds())
			}
			next++
			return nil
		}
		br, err := bfs.NewBatchRunner(bfs.NVMForward{SF: g.Forward()}, ds.Backward(), ds.Part, serveLanes, bfs.Config{})
		if err != nil {
			return err
		}
		srv := serve.NewServer(br, deg, list.NumVertices, serve.ServerConfig{
			Lanes: serveLanes, QueueCap: serveQueueCap, Policy: serve.RejectNewest,
			DefaultDeadline: serveDeadline, BetweenSweeps: hook,
		})
		defer srv.Close()

		open := make([]serve.Arrival, serveQueries)
		for i := range open {
			open[i] = serve.Arrival{Root: roots[i], At: float64(i) / serveRate}
		}
		t0 := time.Now()
		endS := rec.begin("serve.Server.ServeTrace")
		outs, err := srv.ServeTrace(open)
		openWall := time.Since(t0).Seconds()
		st := srv.Stats()
		endS(map[string]any{"sweeps": st.Steps, "served": st.Served})
		if err != nil {
			return fmt.Errorf("open loop: %w", err)
		}
		if pass == 0 && rec != nil {
			// The pass's layer counters, before the closed loop below.
			deviceMetrics(layer, snapshots(ds.Devices), 1)
			stackMetrics(layer, srv.Layers())
			dst := g.Stats()
			adds, dels := g.PendingEdits()
			layer["serve.sweeps"] = float64(st.Steps)
			layer["serve.lane_occupancy"] = st.Occupancy(serveLanes)
			layer["serve.shed"] = float64(st.Shed)
			layer["serve.expired"] = float64(st.Expired)
			layer["serve.wall_ms_per_sweep"] = ratio(openWall, float64(st.Steps)) * 1e3
			layer["dyn.applied"] = float64(dst.Applied)
			layer["dyn.wal_bytes"] = float64(dst.WALBytes)
			layer["dyn.pending_edits"] = float64(adds + dels)
		}
		for _, q := range outs {
			o.check(q.Outcome == serve.OutcomeServed && q.Visited > 0,
				"query %d (root %d): %v, visited %d", q.ID, q.Root, q.Outcome, q.Visited)
			if pass == 0 && q.Outcome == serve.OutcomeServed {
				search := q.Finished - q.Admitted
				o.SearchV = append(o.SearchV, search)
				o.SearchTEPS = append(o.SearchTEPS, float64(q.TraversedEdges)/search)
				o.QueryLat = append(o.QueryLat, q.Latency)
				waits = append(waits, q.Admitted-q.Arrival)
			}
		}

		// Traced runs also measure a closed loop, outside the pass time:
		// closedClients callers each submit their next query the moment
		// the previous one completes, keeping every lane busy. Its
		// throughput moves by more than any end-to-end bound with the
		// seed's roots and update stream (1325-1796 queries/s over one
		// graph), so it is a per-layer metric.
		var bouts []serve.ServedQuery
		if rec != nil && pass == 0 {
			tc := time.Now()
			endC := rec.begin("serve.Server.Pump")
			bouts, err = closedLoop(srv, roots[serveQueries:])
			endC(nil)
			o.untimed(tc)
			if err != nil {
				return fmt.Errorf("closed loop: %w", err)
			}
			finish := make([]float64, 0, len(bouts))
			for _, q := range bouts {
				o.check(q.Outcome == serve.OutcomeServed, "closed-loop query %d: %v", q.ID, q.Outcome)
				finish = append(finish, q.Finished)
			}
			layer["serve.closed_loop_qps"] = busyThroughput(finish)
		}
		st = srv.Stats()
		o.check(int64(len(outs)+len(bouts)) == st.Submitted &&
			st.Submitted == st.Served+st.Shed+st.Expired+st.Cancelled+st.Failed,
			"outcome accounting: %d outcomes, submitted %d = served %d + shed %d + expired %d + cancelled %d + failed %d",
			len(outs)+len(bouts), st.Submitted, st.Served, st.Shed, st.Expired, st.Cancelled, st.Failed)

		if pass == 0 {
			o.CapacityQPS = ratio(float64(serveLanes*len(o.SearchV)), sum(o.SearchV))
		}
		o.check(next == len(stream), "only %d of %d update batches applied", next, len(stream))

		// Check the final graph, then that the inverse stream cancels
		// every pending edit; neither is part of the pass.
		defer o.untimed(time.Now())
		if pass == 0 && next == len(stream) {
			if err := checkFinalGraph(o, ds, us.finalList(list), roots[0]); err != nil {
				return err
			}
		}
		for _, b := range us.inverse(next) {
			if _, err := g.Apply(uclock, b); err != nil {
				return fmt.Errorf("undo updates: %w", err)
			}
		}
		adds, dels := g.PendingEdits()
		o.check(adds+dels == 0, "overlay not empty after undo: %d adds, %d dels", adds, dels)
		return nil
	}
	if err := roundLoop(o, p, rec, serveQueries, 1, build, init, pass); err != nil {
		return nil, err
	}
	if rec != nil {
		waitTail, _ := tail(waits)
		updTail, _ := tail(updLat)
		layer["serve.queue_wait_p50_ms"] = median(waits) * 1e3
		layer["serve.queue_wait_tail_ms"] = waitTail * 1e3
		layer["dyn.apply_wall_ms_p50"] = median(applyWall) * 1e3
		layer["dyn.update_vtime_p50_ms"] = median(updLat) * 1e3
		layer["dyn.update_vtime_tail_ms"] = updTail * 1e3
		o.Layer = layer
	}
	o.note(tailNote("dyn.update_vtime_tail_ms", updLat))
	o.note("serving: %d lanes, %g queries/s offered, deadline %gs, %d updates in %d batches every %gs",
		serveLanes, serveRate, serveDeadline, updateBatch*updateBatches, updateBatches, updateEvery)
	return o, nil
}

// closedLoop serves roots from closedClients callers that each submit
// their next query the moment the previous one completes, and returns
// every outcome.
func closedLoop(srv *serve.Server, roots []int64) ([]serve.ServedQuery, error) {
	srv.TakeOutcomes() // drop the open loop's outcomes
	next := 0
	submit := func() error {
		_, err := srv.Submit(roots[next], serve.SubmitOptions{})
		next++
		return err
	}
	for next < min(closedClients, len(roots)) {
		if err := submit(); err != nil {
			return nil, err
		}
	}
	var done []serve.ServedQuery
	for len(done) < len(roots) {
		progressed, err := srv.Pump()
		if err != nil {
			return done, err
		}
		outs := srv.TakeOutcomes()
		done = append(done, outs...)
		for range outs {
			if next < len(roots) {
				if err := submit(); err != nil {
					return done, err
				}
			}
		}
		if !progressed && len(outs) == 0 {
			return done, fmt.Errorf("stalled after %d of %d queries", len(done), len(roots))
		}
	}
	return done, nil
}

// busyThroughput returns the closed loop's completion rate while its
// queue still holds work for every lane: the first and the last
// closedClients completions (ramp-up and drain) are excluded.
func busyThroughput(finish []float64) float64 {
	s := sorted(finish)
	if len(s) <= 2*closedClients {
		return 0
	}
	lo, hi := closedClients-1, len(s)-closedClients-1
	return ratio(float64(hi-lo), s[hi]-s[lo])
}

// updates is the seeded insert/delete stream and what it does to the
// generated graph. Every update changes adjacency: deletions pick edges
// present at that point of the stream, insertions pick absent pairs.
type updates struct {
	Batches [][]dyn.Update
	inBase  map[uint64]bool // base presence of every touched pair
	final   map[uint64]bool // presence of every touched pair after the stream
}

func pairKey(u, v int64) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func newUpdates(list *edgelist.List, seed uint64) *updates {
	base := make([]uint64, 0, len(list.Edges))
	for _, e := range list.Edges {
		if e.U != e.V {
			base = append(base, pairKey(e.U, e.V))
		}
	}
	slices.Sort(base)
	inBase := func(k uint64) bool {
		_, found := slices.BinarySearch(base, k)
		return found
	}
	us := &updates{inBase: make(map[uint64]bool), final: make(map[uint64]bool)}
	present := func(k uint64) bool {
		if p, ok := us.final[k]; ok {
			return p
		}
		return inBase(k)
	}
	r := rng.NewXoroshiro128(seed ^ 0x55706461746573) // "Updates"
	n := uint64(list.NumVertices)
	m := uint64(len(list.Edges))
	for b := 0; b < updateBatches; b++ {
		batch := make([]dyn.Update, 0, updateBatch)
		for len(batch) < updateBatch {
			var up dyn.Update
			if len(batch)%2 == 0 {
				e := list.Edges[r.Uint64n(m)]
				up = dyn.Update{U: e.U, V: e.V, Del: true}
			} else {
				up = dyn.Update{U: int64(r.Uint64n(n)), V: int64(r.Uint64n(n))}
			}
			k := pairKey(up.U, up.V)
			if up.U == up.V || present(k) != up.Del {
				continue
			}
			if _, seen := us.inBase[k]; !seen {
				us.inBase[k] = inBase(k)
			}
			us.final[k] = !up.Del
			batch = append(batch, up)
		}
		us.Batches = append(us.Batches, batch)
	}
	return us
}

// inverse returns the first n batches' undo, in reverse order. Applied
// after them, it cancels every pending overlay edit: an insert cancels a
// pending delete of the same edge and vice versa.
func (us *updates) inverse(n int) [][]dyn.Update {
	out := make([][]dyn.Update, 0, n)
	for i := n - 1; i >= 0; i-- {
		b := us.Batches[i]
		inv := make([]dyn.Update, len(b))
		for j, up := range b {
			inv[len(b)-1-j] = dyn.Update{U: up.U, V: up.V, Del: !up.Del}
		}
		out = append(out, inv)
	}
	return out
}

// finalList returns the edge set after the whole stream, computed from
// the generated list without the dyn layer.
func (us *updates) finalList(list *edgelist.List) *edgelist.List {
	out := &edgelist.List{NumVertices: list.NumVertices}
	for _, e := range list.Edges {
		if p, touched := us.final[pairKey(e.U, e.V)]; !touched || p {
			out.Edges = append(out.Edges, e)
		}
	}
	for k, p := range us.final {
		if p && !us.inBase[k] {
			out.Edges = append(out.Edges, edgelist.Edge{U: int64(k >> 32), V: int64(k & (1<<32 - 1))})
		}
	}
	return out
}

// checkFinalGraph runs one search on the dynamic graph after the whole
// stream and validates it against the independently computed final edge
// set.
func checkFinalGraph(o *outcome, ds *core.DynamicSystem, final *edgelist.List, root int64) error {
	runner, err := ds.NewRunner(bfs.Config{})
	if err != nil {
		return err
	}
	res, err := runner.Run(root)
	if err != nil {
		o.check(false, "final-graph search from %d: %v", root, err)
		return nil
	}
	_, err = validate.Run(res.Tree, root, edgelist.ListSource{List: final})
	o.check(err == nil, "final-graph search from %d: %v", root, err)
	return nil
}
