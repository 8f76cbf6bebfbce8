package main

import (
	"runtime"
	"time"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/edgelist"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/validate"
)

// runG500 is the paper's headline configuration: the Graph500 protocol
// (every tree validated) on DRAM+PCIeFlash with the hybrid alpha/beta
// defaults and the SCALE-27-equivalent device latency. Set-up dominates
// its wall time and bottom-up does most of its edge work, so its NVM read
// path is nearly idle: the control for storage changes. It searches 1024
// roots, not Graph500's 64: the per-root search times have a long upper
// tail, and resampling 256 of them moved the p95 by 7% (quartile spread),
// 512 of them by 5%. A pass of 1024 validated searches (~18 s) spreads
// over 6 rounds of 171 roots and fills the time budget alone, so every run
// times exactly one pass.
func runG500(p params, rec *recorder) (*outcome, error) {
	sc := core.ScenarioPCIeFlash.WithLatencyScale(nvm.ScaleEquivalenceFactor(p.Scale, 27))
	return runStatic(p, rec, sc, bfs.ModeHybrid, 1024, 6)
}

// runSSD drives every edge through the full storage stack: top-down only
// on DRAM+SSD at the unscaled device latency, with delta+varint
// compression, a checksummed 2-way mirror, a page cache smaller than the
// compressed forward graph, async queue depth 8 and frontier prefetch 64.
// 48 roots put 12 beyond the p75, the lowest percentile a tail may report.
// A pass spreads over 6 rounds of 8 roots.
func runSSD(p params, rec *recorder) (*outcome, error) {
	sc := core.ScenarioSSD
	sc.Checksums = true
	sc = sc.WithReplicas(2, 0).WithCache(2<<20, 0).WithIO(true, 8, 64)
	return runStatic(p, rec, sc, bfs.ModeTopDownOnly, 48, 6)
}

// runStatic is the single-node protocol shared by the two static
// workloads: a fixed root set searched in passes, each pass spread over
// `blocks` rounds with a freshly set-up system each (roundLoop). Every
// block starts from reset devices and a cold page cache; the modeled
// metrics come from the first pass.
func runStatic(p params, rec *recorder, sc core.Scenario, mode bfs.Mode, nroots, blocks int) (*outcome, error) {
	o := &outcome{}
	layer := zeroLayers()
	var roots []int64
	var devStats []nvm.Stats
	var spans int
	var layers nvm.StackStats
	var tdTime, allTime int64
	var searchWall, validateWall []float64
	build := func(list *edgelist.List) (*core.System, error) {
		end := rec.begin("core.Build")
		defer end(nil)
		return core.Build(edgelist.ListSource{List: list}, numa.DefaultTopology, sc, core.BuildOptions{})
	}
	init := func(sys *core.System, list *edgelist.List) error {
		src := edgelist.ListSource{List: list}
		if rec != nil {
			layer["generator.wall_s"] = median(rec.durations("generator.Generate"))
			if err := probeBuild(rec, src, sc, layer); err != nil {
				return err
			}
		}
		var err error
		roots, err = giantRoots(src.NumVertices(), sys.Backward.Degree, sys.NewRunner, nroots, p.Seed)
		return err
	}
	block := func(sys *core.System, list *edgelist.List, pass, lo, hi int) error {
		src := edgelist.ListSource{List: list}
		for _, d := range sys.Devices {
			d.Reset()
		}
		if c := sys.PageCache(); c != nil {
			c.Reset()
		}
		runner, err := sys.NewRunner(bfs.Config{Mode: mode})
		if err != nil {
			return err
		}
		for _, root := range roots[lo:hi] {
			t0 := time.Now()
			endR := rec.begin("bfs.Runner.Run")
			res, err := runner.Run(root)
			if err != nil {
				endR(nil)
				o.check(false, "root %d: %v", root, err)
				continue
			}
			endR(map[string]any{"vtime_ns": int64(res.Time), "examined_nvm": res.ExaminedNVM})
			searchWall = append(searchWall, time.Since(t0).Seconds())

			t1 := time.Now()
			endV := rec.begin("validate.Run")
			rep, err := validate.Run(res.Tree, root, src)
			endV(nil)
			validateWall = append(validateWall, time.Since(t1).Seconds())
			o.check(err == nil, "root %d: validation: %v", root, err)
			if err != nil || pass > 0 {
				continue
			}
			sec := res.Time.Seconds()
			o.SearchV = append(o.SearchV, sec)
			o.SearchTEPS = append(o.SearchTEPS, float64(rep.TraversedEdges)/sec)
			o.QueryLat = append(o.QueryLat, sec)
			layer["bfs.examined_td"] += float64(res.ExaminedTD)
			layer["bfs.examined_bu"] += float64(res.ExaminedBU)
			layer["bfs.examined_nvm"] += float64(res.ExaminedNVM)
			layer["bfs.switches"] += float64(res.Switches)
			layers = layers.Add(res.Layers)
			for _, l := range res.Levels {
				if l.Direction == bfs.TopDown {
					tdTime += int64(l.Time)
				}
				allTime += int64(l.Time)
			}
		}
		if pass > 0 || rec == nil {
			return nil
		}
		devStats = append(devStats, snapshots(sys.Devices)...)
		spans++
		if lo > 0 {
			return nil
		}
		t2 := time.Now()
		defer o.untimed(t2)
		drift, reads, err := driftProbe(rec, sys, mode, roots)
		if err != nil {
			return err
		}
		layer["bfs.vtime_worker_drift"] = drift
		layer["bfs.drift_device_reads"] = reads
		o.note("drift probe: %d roots at RealWorkers 1 vs %d: virtual-time drift %.6f, device-read difference %.0f",
			min(driftRoots, len(roots)), runtime.GOMAXPROCS(0), drift, reads)
		return nil
	}
	if err := roundLoop(o, p, rec, nroots, blocks, build, init, block); err != nil {
		return nil, err
	}
	// Searches run one at a time (a closed loop of one client), so a
	// query's latency is its search time and capacity is the reciprocal
	// of the mean search time.
	o.CapacityQPS = ratio(float64(len(o.SearchV)), sum(o.SearchV))

	if rec != nil {
		// Each block of the first pass observed its system's devices once.
		deviceMetrics(layer, devStats, spans)
		stackMetrics(layer, layers)
		layer["bfs.td_level_vtime_share"] = ratio(float64(tdTime), float64(allTime))
		layer["bfs.search_wall_ms_p50"] = median(searchWall) * 1e3
		layer["validate.wall_ms_p50"] = median(validateWall) * 1e3
		o.Layer = layer
	}
	return o, nil
}

// driftRoots is the fixed root subset the schedule-drift probe reruns.
const driftRoots = 8

// driftProbe reruns the first driftRoots roots with one real worker and
// with GOMAXPROCS workers, each from reset devices and a cold cache, and
// returns the relative difference of their summed virtual search time and
// the absolute difference of their device reads. Virtual time is meant to
// be a pure function of graph, scenario and seed, so both should be 0.
func driftProbe(rec *recorder, sys *core.System, mode bfs.Mode, roots []int64) (drift, reads float64, err error) {
	end := rec.begin("bench.drift_probe")
	defer end(nil)
	roots = roots[:min(driftRoots, len(roots))]
	measure := func(workers int) (vt float64, nreads int64, err error) {
		for _, d := range sys.Devices {
			d.Reset()
		}
		if c := sys.PageCache(); c != nil {
			c.Reset()
		}
		r, err := sys.NewRunner(bfs.Config{Mode: mode, RealWorkers: workers})
		if err != nil {
			return 0, 0, err
		}
		for _, root := range roots {
			endR := rec.begin("bfs.Runner.Run")
			res, err := r.Run(root)
			endR(map[string]any{"real_workers": workers})
			if err != nil {
				return 0, 0, err
			}
			vt += res.Time.Seconds()
		}
		for _, s := range snapshots(sys.Devices) {
			nreads += s.Reads
		}
		return vt, nreads, nil
	}
	t1, r1, err := measure(1)
	if err != nil {
		return 0, 0, err
	}
	tn, rn, err := measure(runtime.GOMAXPROCS(0))
	if err != nil {
		return 0, 0, err
	}
	d := ratio(tn-t1, t1)
	if d < 0 {
		d = -d
	}
	dr := float64(rn - r1)
	if dr < 0 {
		dr = -dr
	}
	return d, dr, nil
}
