package main

import (
	"runtime"
	"slices"
	"time"

	"semibfs/internal/bfs"
	"semibfs/internal/cluster"
	"semibfs/internal/core"
	"semibfs/internal/edgelist"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/validate"
	"semibfs/internal/vtime"
)

// runGrid is the only workload that exercises the cluster layer: a 4x4
// grid in which every machine is a PCIe semi-external node with
// delta+varint adjacency and compressed wire formats, hybrid BFS. Every
// grid tree must be bit-identical to the single-node DRAM tree of the same
// root, and every DRAM tree passes validation. A pass spreads over
// gridBlocks rounds: grids built one after the other ran the same roots up
// to 47% apart, so a pass on one grid measured that grid's luck.
func runGrid(p params, rec *recorder) (*outcome, error) {
	cfg := core.ScenarioPCIeFlash.WithIO(true, 0, 0).WithGrid(4, 4).ClusterConfig()
	// Machines run on as many goroutines as single-node BFS does by
	// default, so schedule dependence can show here too.
	cfg.RealWorkers = runtime.GOMAXPROCS(0)
	o := &outcome{}
	layer := zeroLayers()
	var ref *core.System
	defer func() {
		if ref != nil {
			ref.Close()
		}
	}()
	var roots, traversed []int64
	var want [][]int64
	var devStats []nvm.Stats
	var readsOf []int64
	var comm cluster.CommStats
	var buTime, allTime int64
	var searchWall []float64
	build := func(list *edgelist.List) (*cluster.Grid, error) {
		end := rec.begin("cluster.BuildGrid")
		defer end(nil)
		return cluster.BuildGrid(edgelist.ListSource{List: list}, cfg)
	}
	// The oracle: single-node DRAM trees, each validated. Built after the
	// first timed set-up; it is the check, not the system under test.
	init := func(g *cluster.Grid, list *edgelist.List) error {
		src := edgelist.ListSource{List: list}
		var err error
		if ref, err = core.Build(src, numa.DefaultTopology, core.ScenarioDRAMOnly, core.BuildOptions{}); err != nil {
			return err
		}
		if roots, err = giantRoots(src.NumVertices(), ref.Backward.Degree, ref.NewRunner, gridRoots, p.Seed); err != nil {
			return err
		}
		refRunner, err := ref.NewRunner(bfs.Config{})
		if err != nil {
			return err
		}
		want = make([][]int64, len(roots))
		traversed = make([]int64, len(roots))
		for i, root := range roots {
			res, err := refRunner.Run(root)
			if err != nil {
				return err
			}
			rep, err := validate.Run(res.Tree, root, src)
			o.check(err == nil, "DRAM reference root %d: %v", root, err)
			if err != nil {
				continue
			}
			want[i], traversed[i] = res.CloneTree(), rep.TraversedEdges
		}
		readsOf = make([]int64, g.NumMachines())
		if rec != nil {
			layer["generator.wall_s"] = median(rec.durations("generator.Generate"))
			layer["cluster.build_wall_s"] = median(rec.durations("cluster.BuildGrid"))
		}
		return nil
	}
	block := func(g *cluster.Grid, _ *edgelist.List, pass, lo, hi int) error {
		var first vtime.Duration // the block's first search, in virtual time
		for i := lo; i < hi; i++ {
			root := roots[i]
			t0 := time.Now()
			endR := rec.begin("cluster.Grid.Run")
			res, err := g.Run(root)
			if err != nil {
				endR(nil)
				o.check(false, "grid root %d: %v", root, err)
				continue
			}
			endR(map[string]any{"vtime_ns": int64(res.Time), "comm_bytes": res.CommBytes})
			searchWall = append(searchWall, time.Since(t0).Seconds())
			if i == lo {
				first = res.Time
			}
			o.check(want[i] != nil && slices.Equal(res.Tree, want[i]),
				"grid root %d: tree differs from the single-node DRAM tree", root)
			if pass > 0 {
				continue
			}
			if rec != nil {
				// Grid.Run resets every machine's devices, so each report
				// covers exactly this root.
				for k, st := range g.MachineReport() {
					devStats = append(devStats, st.Device)
					readsOf[k] += st.Device.Reads
				}
			}
			sec := res.Time.Seconds()
			o.SearchV = append(o.SearchV, sec)
			o.SearchTEPS = append(o.SearchTEPS, float64(traversed[i])/sec)
			o.QueryLat = append(o.QueryLat, sec)
			comm.TDFrontier += res.Comm.TDFrontier
			comm.TDCandidate += res.Comm.TDCandidate
			comm.BUAllgather += res.Comm.BUAllgather
			comm.BURing += res.Comm.BURing
			comm.Control += res.Comm.Control
			for _, l := range res.Levels {
				if l.Direction == bfs.BottomUp {
					buTime += int64(l.Time)
				}
				allTime += int64(l.Time)
			}
		}
		if rec == nil || pass > 0 || lo > 0 || first == 0 {
			return nil
		}
		// The carry-over probe: the block's first root again, last on the
		// same grid. A search's virtual time should not depend on what the
		// grid searched before it (see README.md, known defects).
		defer o.untimed(time.Now())
		endP := rec.begin("bench.carryover_probe")
		res, err := g.Run(roots[lo])
		endP(nil)
		if err != nil {
			return err
		}
		carry := ratio(float64(res.Time-first), float64(first))
		layer["cluster.vtime_carryover"] = carry
		o.note("carry-over probe: root %d took %.3f virtual s first and %.3f s after %d more searches on the same grid (carry-over %.3f)",
			roots[lo], first.Seconds(), res.Time.Seconds(), hi-lo-1, carry)
		return nil
	}
	if err := roundLoop(o, p, rec, gridRoots, gridBlocks, build, init, block); err != nil {
		return nil, err
	}
	o.CapacityQPS = ratio(float64(len(o.SearchV)), sum(o.SearchV))
	if rec != nil {
		deviceMetrics(layer, devStats, len(roots))
		layer["cluster.machine_reads_max"] = float64(slices.Max(readsOf))
		layer["cluster.comm_bytes.td_frontier"] = float64(comm.TDFrontier)
		layer["cluster.comm_bytes.td_candidate"] = float64(comm.TDCandidate)
		layer["cluster.comm_bytes.bu_allgather"] = float64(comm.BUAllgather)
		layer["cluster.comm_bytes.bu_ring"] = float64(comm.BURing)
		layer["cluster.comm_bytes.control"] = float64(comm.Control)
		layer["cluster.bu_level_vtime_share"] = ratio(float64(buTime), float64(allTime))
		layer["cluster.search_wall_ms_p50"] = median(searchWall) * 1e3
		o.Layer = layer
	}
	return o, nil
}

// gridRoots is the grid's root count per pass: 12 beyond the p75.
// gridBlocks is the number of rounds a pass spreads over.
const (
	gridRoots  = 48
	gridBlocks = 6
)
