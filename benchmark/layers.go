package main

import (
	"io"
	"runtime/debug"
	"time"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/graph500"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
)

// graphSeed fixes every workload's graph: the graph is the dataset, and
// the run's seed draws the traffic over it (search roots, queries, the
// update stream). With a graph per seed, the graph's level structure moved
// the modeled metrics between seeds by more than any bound allows: over
// ten seeds the quartile spread was 5.5% for harmonic-mean TEPS and 11.6%
// for the tail search time on g500-pcie-hybrid, and 16% for the search
// p50 on serve-pcie-updates, where shared sweeps make latency a step
// function of the level count.
const graphSeed = 1

// generate runs Graph500 Step 1: the workload's graph at the run's SCALE.
func generate(p params, rec *recorder) (*edgelist.List, error) {
	end := rec.begin("generator.Generate")
	list, err := generator.Generate(generator.Config{Scale: p.Scale, EdgeFactor: generator.DefaultEdgeFactor, Seed: graphSeed})
	end(nil)
	return list, err
}

// setUpOnce times one set-up, generate → system ready to search, and
// records it as a setup_s sample: build makes the system from the
// generated list. The garbage of whatever ran before is collected and
// returned to the operating system first, so no set-up inherits the
// previous one's memory and the peak resident set does not grow with the
// number of rounds (ssd-topdown-stack: 110-115 MiB in runs of one pass,
// 143 MiB in runs of two, without it).
func setUpOnce[S io.Closer](o *outcome, p params, rec *recorder, build func(*edgelist.List) (S, error)) (S, *edgelist.List, error) {
	var sys, none S
	debug.FreeOSMemory()
	t0 := time.Now()
	end := rec.begin("bench.setup")
	list, err := generate(p, rec)
	if err == nil {
		sys, err = build(list)
	}
	end(nil)
	if err != nil {
		return none, nil, err
	}
	o.SetupWall = append(o.SetupWall, time.Since(t0).Seconds())
	return sys, list, nil
}

// probeBuild times the layers core.Build and core.BuildDynamic call
// internally — the CSR builds and the forward-graph offload — by calling
// the same exported entry points directly with the scenario's options.
// It runs in traced runs only, untimed, after the first set-up, and its
// results are discarded; it fills the csr.* and semiext.* metrics.
func probeBuild(rec *recorder, src edgelist.Source, sc core.Scenario, m map[string]float64) error {
	end := rec.begin("bench.probe_build")
	defer end(nil)
	opts, err := sc.DynamicOptions()
	if err != nil {
		return err
	}
	part := numa.NewPartition(numa.DefaultTopology, int(src.NumVertices()))

	endF := rec.begin("csr.BuildForward")
	fg, err := csr.BuildForward(src, part)
	endF(nil)
	if err != nil {
		return err
	}
	profile := sc.Device
	if sc.LatencyScale > 0 {
		profile = profile.WithLatencyScale(sc.LatencyScale)
	}
	dev := nvm.NewDevice(profile, 0)
	mk := func(name string, chunk int) (nvm.Storage, error) {
		return nvm.NewNamedMemStore(name, dev, chunk), nil
	}
	endO := rec.begin("semiext.OffloadForward")
	sf, err := semiext.OffloadForward(fg, mk, nil, opts.Forward)
	if err != nil {
		endO(nil)
		return err
	}
	written := sf.NVMBytes()
	endO(map[string]any{"nvm_bytes_written": written})
	m["semiext.nvm_bytes_written"] = float64(written)
	m["semiext.compression_ratio"] = sf.CompressionRatio()
	if err := sf.Close(); err != nil {
		return err
	}

	endB := rec.begin("csr.BuildBackward")
	_, err = csr.BuildBackward(src, part, csr.SortByDegreeDesc)
	endB(nil)
	if err != nil {
		return err
	}
	m["csr.build_wall_s"] = sum(rec.durations("csr.BuildForward")) + sum(rec.durations("csr.BuildBackward"))
	m["semiext.offload_wall_s"] = sum(rec.durations("semiext.OffloadForward"))
	return nil
}

// deviceMetrics fills the nvm.device_* metrics from device snapshots
// covering one measured pass in `spans` consecutive observation spans
// (1 when each device was observed once): counts sum, utilization is the
// mean over snapshots, wait and service times are request-weighted means,
// and avgqu-sz is the requests in flight across all devices, averaged
// over the spans.
func deviceMetrics(m map[string]float64, stats []nvm.Stats, spans int) {
	var reads, readBytes, writes, reqs int64
	var util, qsz, wait, service float64
	for _, s := range stats {
		reads += s.Reads
		readBytes += s.ReadBytes
		writes += s.Writes
		n := s.Reads + s.Writes
		reqs += n
		util += s.Utilization
		qsz += s.AvgQueueSize
		wait += float64(s.AvgWait) * float64(n)
		service += float64(s.AvgService) * float64(n)
	}
	m["nvm.device_reads"] = float64(reads)
	m["nvm.device_read_bytes"] = float64(readBytes)
	m["nvm.device_writes"] = float64(writes)
	m["nvm.device_utilization"] = ratio(util, float64(len(stats)))
	m["nvm.avgqu_sz"] = ratio(qsz, float64(spans))
	m["nvm.device_wait_us"] = ratio(wait, float64(reqs)) / 1e3
	m["nvm.device_service_us"] = ratio(service, float64(reqs)) / 1e3
}

// stackMetrics fills the storage-stack counters (cache, async pipeline,
// retry, mirror) from a per-pass StackStats delta. A merged fill is also
// counted as a hit by the cache layer, so hits + misses overstate
// distinct lookups by cache_merged (README.md, known defects).
func stackMetrics(m map[string]float64, s nvm.StackStats) {
	m["nvm.cache_hits"] = float64(s.Get("cache", "hits"))
	m["nvm.cache_merged"] = float64(s.Get("cache", "merged_fills"))
	m["nvm.cache_misses"] = float64(s.Get("cache", "misses"))
	m["nvm.cache_evictions"] = float64(s.Get("cache", "evictions"))
	prefetches := s.Get("cache", "prefetches")
	m["nvm.prefetch_issued"] = float64(prefetches)
	m["nvm.prefetch_useful_ratio"] = ratio(float64(s.Get("cache", "prefetch_hits")), float64(prefetches))
	m["nvm.async_demand_runs"] = float64(s.Get("async", "demand_runs"))
	m["nvm.retries"] = float64(s.Get("retry", "retries"))
	m["nvm.failovers"] = float64(s.Get("mirror", "failovers"))
}

// giantRoots samples count search roots the Graph500 way (seeded,
// distinct, non-zero degree) but only from the giant component, found by
// one search from the highest-degree vertex. A root in a two-vertex
// component traverses one edge in a search's fixed per-level time; one
// such root among 256 lowered the harmonic-mean TEPS a hundredfold.
func giantRoots(n int64, deg func(int64) int64, newRunner func(bfs.Config) (*bfs.Runner, error), count int, seed uint64) ([]int64, error) {
	hub := int64(0)
	for v := int64(1); v < n; v++ {
		if deg(v) > deg(hub) {
			hub = v
		}
	}
	r, err := newRunner(bfs.Config{})
	if err != nil {
		return nil, err
	}
	res, err := r.Run(hub)
	if err != nil {
		return nil, err
	}
	tree := res.CloneTree()
	return graph500.SampleRoots(n, count, seed, func(v int64) int64 {
		if tree[v] < 0 {
			return 0
		}
		return deg(v)
	})
}

// zeroLayers returns every per-layer metric set to 0; each workload then
// fills the layers it exercises, so a layer a workload leaves unused
// reads 0 instead of going missing.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

func snapshots(devs []*nvm.Device) []nvm.Stats {
	out := make([]nvm.Stats, len(devs))
	for i, d := range devs {
		out[i] = d.Snapshot()
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
