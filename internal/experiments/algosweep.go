package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/graph500"
	"semibfs/internal/stats"
	"semibfs/internal/vp"
)

// AlgoRow is one (scenario, algorithm, cache budget) measurement of the
// vertex-program sweep.
type AlgoRow struct {
	Scenario string `json:"scenario"`
	Algo     string `json:"algo"`
	// Fraction is the cache budget as a fraction of the forward graph's
	// NVM bytes; CacheBytes is the resulting budget (0 = no cache).
	Fraction   float64 `json:"fraction"`
	CacheBytes int64   `json:"cache_bytes"`
	// TEPS is the harmonic-mean traversed-edges-per-second over the
	// sampled roots (BFS only; 0 for the iterative algorithms).
	TEPS float64 `json:"teps"`
	// EdgesPerSec is examined edges per virtual second over the whole
	// run — the throughput figure that is comparable across algorithms.
	EdgesPerSec float64 `json:"edges_per_sec"`
	// Iterations / IterationsPerSec describe the iterative algorithms'
	// sweep structure (for BFS, Iterations is the level count of the
	// last root).
	Iterations       int     `json:"iterations"`
	IterationsPerSec float64 `json:"iterations_per_sec"`
	Converged        bool    `json:"converged"`
	// StateBytes is the packed size of the program's per-vertex result
	// state (the state codec's delta+varint or raw-float snapshot).
	StateBytes int64   `json:"state_bytes"`
	HitRate    float64 `json:"hit_rate"`
	// NVMReads counts post-cache device requests (the mirror layer's
	// read total for this run).
	NVMReads int64   `json:"nvm_reads"`
	Seconds  float64 `json:"seconds"`
}

// AlgoSweep measures per-algorithm throughput versus cache budget for
// both NVM device profiles, with every algorithm running through the full
// storage stack: compressed mirrored checksummed forward values, partial
// backward offload, and the swept page cache on top. BFS reports
// harmonic-mean TEPS over the Graph500 root sample; connected components
// and PageRank run once (their work is root-independent) and report
// iteration and edge throughput. Every row's result is validated against
// a DRAM-only reference computed once per algorithm: parent trees and
// component labels must match exactly, PageRank ranks bit-identically —
// the framework's determinism means the stack can change only the clock.
func AlgoSweep(opts Options) ([]AlgoRow, error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()

	cfg := defaultBFSConfig(opts)
	cfg.Alpha = CacheSweepAlpha
	cfg.Beta = 10 * CacheSweepAlpha
	cfg.RealWorkers = opts.Workers
	prOpts := vp.PageRankOptions{}

	degree := func(sys *core.System) func(int64) int64 {
		return func(v int64) int64 { return sys.Backward.Degree(v) }
	}

	// DRAM references, computed once per algorithm.
	dramSys, err := lab.System(core.ScenarioDRAMOnly, false)
	if err != nil {
		return nil, err
	}
	roots, err := graph500.SampleRoots(lab.Src.NumVertices(), opts.Roots, opts.Seed, degree(dramSys))
	if err != nil {
		return nil, err
	}
	refTrees := make(map[int64][]int64)
	var refLabels []int64
	var refRanks []float64
	{
		bfsProg := bfs.NewBFS()
		eng, err := dramSys.NewEngine(bfsProg, cfg)
		if err != nil {
			return nil, err
		}
		for _, root := range roots {
			if _, err := eng.Run(root); err != nil {
				return nil, err
			}
			refTrees[root] = append([]int64(nil), bfsProg.Tree()...)
		}
		ccProg := vp.NewComponents()
		if eng, err = dramSys.NewEngine(ccProg, cfg); err != nil {
			return nil, err
		}
		if _, err := eng.Run(0); err != nil {
			return nil, err
		}
		refLabels = append([]int64(nil), ccProg.Labels()...)
		pr := vp.NewPageRank(degreesOf(dramSys), prOpts)
		if eng, err = dramSys.NewEngine(pr, cfg); err != nil {
			return nil, err
		}
		if _, err := eng.Run(0); err != nil {
			return nil, err
		}
		refRanks = append([]float64(nil), pr.Ranks()...)
	}

	var rows []AlgoRow
	for _, base := range []core.Scenario{core.ScenarioPCIeFlash, core.ScenarioSSD} {
		sc := lab.scenario(base, true)
		sc.Checksums = true
		sc.Replicas = 2
		sc.Compress = true
		sc.BackwardDRAMEdgeLimit = 4
		// Anchor the budget grid to the measured forward footprint.
		probe, err := lab.System(sc, false)
		if err != nil {
			return nil, err
		}
		fwdBytes := probe.NVMForwardBytes
		for _, algo := range core.Algorithms() {
			for _, frac := range CacheFractions {
				cached := sc.WithAlgorithm(algo)
				if frac > 0 {
					cached = cached.WithCache(int64(frac*float64(fwdBytes)), CacheReadahead)
				}
				row, err := runAlgoPoint(lab, cached, cfg, prOpts, frac, roots, refTrees, refLabels, refRanks)
				if err != nil {
					return nil, fmt.Errorf("algo sweep %s %s frac=%g: %w", base.Name, algo, frac, err)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// degreesOf materializes the per-vertex degree array of a system.
func degreesOf(sys *core.System) []int64 {
	deg := make([]int64, sys.Part.N)
	for v := range deg {
		deg[v] = sys.Backward.Degree(int64(v))
	}
	return deg
}

// runAlgoPoint runs one (scenario, algorithm, budget) point and validates
// it against the DRAM reference.
func runAlgoPoint(lab *Lab, sc core.Scenario, cfg bfs.Config, prOpts vp.PageRankOptions,
	frac float64, roots []int64, refTrees map[int64][]int64,
	refLabels []int64, refRanks []float64) (AlgoRow, error) {
	sys, err := lab.System(sc, false)
	if err != nil {
		return AlgoRow{}, err
	}
	prog, err := sys.NewProgram(prOpts)
	if err != nil {
		return AlgoRow{}, err
	}
	eng, err := sys.NewEngine(prog, cfg)
	if err != nil {
		return AlgoRow{}, err
	}
	row := AlgoRow{
		Scenario:   sc.Name,
		Algo:       sc.Algorithm.String(),
		Fraction:   frac,
		CacheBytes: sc.CacheBytes,
		StateBytes: vp.StateBytes(prog),
	}
	if sc.Algorithm == core.AlgoBFS {
		degree := func(v int64) int64 { return sys.Backward.Degree(v) }
		var teps []float64
		var examined, nvmReads, hits, misses int64
		var seconds float64
		var iters int
		for _, root := range roots {
			res, err := eng.Run(root)
			if err != nil {
				return row, err
			}
			tree := prog.(*bfs.BFS).Tree()
			ref := refTrees[root]
			for v := range ref {
				if tree[v] != ref[v] {
					return row, fmt.Errorf("root %d: tree[%d] = %d, DRAM reference %d",
						root, v, tree[v], ref[v])
				}
			}
			var traversed int64
			for v, p := range tree {
				if p != -1 {
					traversed += degree(int64(v))
				}
			}
			traversed /= 2
			if res.Time > 0 {
				teps = append(teps, float64(traversed)/res.Time.Seconds())
			}
			examined += res.ExaminedTD + res.ExaminedBU
			nvmReads += res.Layers.Get("mirror", "reads")
			hits += res.Cache.Hits
			misses += res.Cache.Misses
			seconds += res.Time.Seconds()
			iters = len(res.Levels)
		}
		row.TEPS = stats.Summarize(teps).HarmonicMean
		row.Iterations = iters
		row.Converged = true
		row.Seconds = seconds
		if seconds > 0 {
			row.EdgesPerSec = float64(examined) / seconds
		}
		row.NVMReads = nvmReads
		if hits+misses > 0 {
			row.HitRate = float64(hits) / float64(hits+misses)
		}
		row.StateBytes = vp.StateBytes(prog)
		return row, nil
	}

	res, err := eng.Run(0)
	if err != nil {
		return row, err
	}
	switch sc.Algorithm {
	case core.AlgoComponents:
		for v, l := range prog.(*vp.Components).Labels() {
			if l != refLabels[v] {
				return row, fmt.Errorf("label[%d] = %d, DRAM reference %d", v, l, refLabels[v])
			}
		}
		row.Converged = true
	case core.AlgoPageRank:
		pr := prog.(*vp.PageRank)
		for v, r := range pr.Ranks() {
			if r != refRanks[v] {
				return row, fmt.Errorf("rank[%d] = %v, DRAM reference %v (not bit-identical)",
					v, r, refRanks[v])
			}
		}
		row.Converged = res.Converged
	}
	row.Iterations = len(res.Levels)
	row.Seconds = res.Time.Seconds()
	if row.Seconds > 0 {
		row.EdgesPerSec = float64(res.ExaminedTD+res.ExaminedBU) / row.Seconds
		row.IterationsPerSec = float64(row.Iterations) / row.Seconds
	}
	row.NVMReads = res.Layers.Get("mirror", "reads")
	if t := res.Cache.Hits + res.Cache.Misses; t > 0 {
		row.HitRate = float64(res.Cache.Hits) / float64(t)
	}
	row.StateBytes = vp.StateBytes(prog)
	return row, nil
}

// FormatAlgoSweep renders the algorithm sweep as a text table.
func FormatAlgoSweep(rows []AlgoRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Algorithm sweep: vertex programs through the full NVM stack vs cache budget")
	fmt.Fprintf(&b, "%-12s %-9s %8s %10s %12s %6s %10s %8s %10s\n",
		"device", "algo", "budget", "TEPS", "edges/s", "iters", "iters/s", "hit%", "state")
	for _, r := range rows {
		budget := "off"
		if r.CacheBytes > 0 {
			budget = fmt.Sprintf("1/%.0f", 1/r.Fraction)
		}
		teps := "-"
		if r.TEPS > 0 {
			teps = shortTEPS(r.TEPS)
		}
		ips := "-"
		if r.IterationsPerSec > 0 {
			ips = fmt.Sprintf("%.1f", r.IterationsPerSec)
		}
		fmt.Fprintf(&b, "%-12s %-9s %8s %10s %12s %6d %10s %7.1f%% %10s\n",
			r.Scenario, r.Algo, budget, teps, shortTEPS(r.EdgesPerSec),
			r.Iterations, ips, 100*r.HitRate, stats.FormatBytes(r.StateBytes))
	}
	return b.String()
}

// AlgoSweepCSV renders the sweep as CSV for plotting.
func AlgoSweepCSV(rows []AlgoRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "scenario,algo,fraction,cache_bytes,teps,edges_per_sec,iterations,iterations_per_sec,converged,state_bytes,hit_rate,nvm_reads,seconds")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%g,%d,%.6g,%.6g,%d,%.6g,%v,%d,%.4f,%d,%.6g\n",
			r.Scenario, r.Algo, r.Fraction, r.CacheBytes, r.TEPS, r.EdgesPerSec,
			r.Iterations, r.IterationsPerSec, r.Converged, r.StateBytes,
			r.HitRate, r.NVMReads, r.Seconds)
	}
	return b.String()
}

// AlgoSweepJSON renders the sweep as indented JSON.
func AlgoSweepJSON(rows []AlgoRow) (string, error) {
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
