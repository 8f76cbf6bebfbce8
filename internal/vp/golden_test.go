package vp_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/vp"
)

// programGoldenTimes holds Result.Time followed by every LevelStats.Time of
// connected components and PageRank, recorded with one real worker before
// the vertex-program engine was folded into the BFS engine.
var programGoldenTimes = map[string][]int64{
	"DRAM-only/cc":        {645449, 163826, 165226, 153526, 146226, 5821},
	"DRAM-only/pagerank":  {3100172, 171626, 171626, 171626, 171626, 171626, 171626, 171626, 171626, 171626, 171626, 171626, 171626, 171626, 171626, 171626, 171626, 171626, 171626},
	"pcie-stack/cc":       {1281437, 375964, 165174, 153474, 146174, 429827},
	"pcie-stack/pagerank": {3311426, 383764, 171574, 171574, 171574, 171574, 171574, 171574, 171574, 171574, 171574, 171574, 171574, 171574, 171574, 171574, 171574, 171574, 171574},
}

// TestProgramVirtualTimeGolden pins the non-BFS programs' cost accounting
// on DRAM and through the full NVM stack (compression, 2-way mirror,
// checksums, cache, backward tails offloaded past 4 edges).
func TestProgramVirtualTimeGolden(t *testing.T) {
	list, err := generator.Generate(generator.Config{Scale: 10, EdgeFactor: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	stack := core.ScenarioPCIeFlash
	stack.Name = "pcie-stack"
	stack.Compress = true
	stack.Replicas = 2
	stack.Checksums = true
	stack.CacheBytes = 64 << 10
	stack.BackwardDRAMEdgeLimit = 4
	got := map[string][]int64{}
	for _, sc := range []core.Scenario{core.ScenarioDRAMOnly, stack} {
		for _, algo := range []core.Algorithm{core.AlgoComponents, core.AlgoPageRank} {
			sys, err := core.Build(edgelist.ListSource{List: list}, topo, sc.WithAlgorithm(algo), core.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			prog, err := sys.NewProgram(vp.PageRankOptions{})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := sys.NewEngine(prog, bfs.Config{
				Topology: topo, Alpha: 4, Beta: 40, RealWorkers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(0)
			sys.Close()
			if err != nil {
				t.Fatalf("%s %s: %v", sc.Name, algo, err)
			}
			times := []int64{int64(res.Time)}
			for _, l := range res.Levels {
				times = append(times, int64(l.Time))
			}
			got[sc.Name+"/"+algo.String()] = times
		}
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		if fmt.Sprint(programGoldenTimes[name]) != fmt.Sprint(got[name]) {
			fmt.Fprintf(&b, "\t%q: %#v,\n", name, got[name])
		}
	}
	if b.Len() > 0 {
		t.Fatalf("virtual times differ from the golden values; got:\n%s", b.String())
	}
}
