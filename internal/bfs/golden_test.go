package bfs_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
)

// goldenTopo is the simulated machine every golden case runs on.
var goldenTopo = numa.Topology{Nodes: 2, CoresPerNode: 2}

// goldenRoots are searched in order on one runner per case, so later roots
// also pin the cache state the earlier ones leave behind.
var goldenRoots = []int64{0, 17, 60}

// goldenScenarios returns the storage placements the golden test covers:
// DRAM, the forward graph on PCIe flash, and the forward graph on SSD
// behind the full stack (compression, 2-way mirror, checksums, a cache
// smaller than the graph), all with the synchronous I/O path.
func goldenScenarios() []core.Scenario {
	ssd := core.ScenarioSSD
	ssd.Name = "ssd-stack"
	ssd.Compress = true
	ssd.Replicas = 2
	ssd.Checksums = true
	ssd.CacheBytes = 64 << 10
	return []core.Scenario{core.ScenarioDRAMOnly, core.ScenarioPCIeFlash, ssd}
}

// goldenTimes runs every golden root under sc and mode and returns, per
// root, Result.Time followed by every LevelStats.Time, in nanoseconds.
func goldenTimes(t *testing.T, list *edgelist.List, sc core.Scenario, mode bfs.Mode) [][]int64 {
	t.Helper()
	sys, err := core.Build(edgelist.ListSource{List: list}, goldenTopo, sc, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	r, err := sys.NewRunner(bfs.Config{
		Topology: goldenTopo, Alpha: 4, Beta: 40, Mode: mode, RealWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out [][]int64
	for _, root := range goldenRoots {
		res, err := r.Run(root)
		if err != nil {
			t.Fatalf("%s %v root %d: %v", sc.Name, mode, root, err)
		}
		times := []int64{int64(res.Time)}
		for _, l := range res.Levels {
			times = append(times, int64(l.Time))
		}
		if mode == bfs.ModeHybrid && sc.Faults.DieAfterReads > 0 && res.Resilience.DegradedLevels() == 0 {
			t.Fatalf("%s root %d: the faulted case never degraded", sc.Name, root)
		}
		out = append(out, times)
	}
	return out
}

// goldenVirtualTimes holds Result.Time and every LevelStats.Time of each
// case, recorded with one real worker before the BFS runner and the
// vertex-program engine were merged into one engine. The merged engine
// must charge exactly the same virtual time.
var goldenVirtualTimes = map[string][][]int64{
	"DRAM+PCIeFlash/bottom-up-only": {
		{108409, 61309, 31380, 8906, 6742},
		{326913, 145299, 119473, 34930, 13375, 6974, 6742},
		{79849, 40041, 25447, 7547, 6742},
	},
	"DRAM+PCIeFlash/hybrid": {
		{46433416, 158408, 46245890, 8148, 6742},
		{16799075, 141832, 145923, 16130937, 12832, 6974, 346825},
		{2894202, 250498, 25339, 7547, 2602938},
	},
	"DRAM+PCIeFlash/top-down-only": {
		{196103027, 158408, 46245890, 142096217, 7593944},
		{195792498, 141832, 145923, 16130937, 148450018, 30567935, 346849},
		{196070851, 250498, 88905350, 104303625, 2602974},
	},
	"DRAM-only/bottom-up-only": {
		{108409, 61309, 31380, 8906, 6742},
		{326913, 145299, 119473, 34930, 13375, 6974, 6742},
		{79849, 40041, 25447, 7547, 6742},
	},
	"DRAM-only/hybrid": {
		{203360, 20962, 153280, 8148, 6742},
		{213953, 5218, 9349, 160512, 12832, 6974, 5316},
		{91578, 43706, 25339, 7547, 7106},
	},
	"DRAM-only/top-down-only": {
		{263759, 20962, 153280, 71143, 9806},
		{323127, 5218, 9349, 160512, 117470, 16234, 5340},
		{255798, 43706, 150632, 45950, 7106},
	},
	"pcie-forward-dies/hybrid": {
		{5668694, 158408, 5492294, 8906, 6742},
		{326999, 145385, 119473, 34930, 13375, 6974, 6742},
		{79849, 40041, 25447, 7547, 6742},
	},
	"ssd-stack/bottom-up-only": {
		{108409, 61309, 31380, 8906, 6742},
		{326913, 145299, 119473, 34930, 13375, 6974, 6742},
		{79849, 40041, 25447, 7547, 6742},
	},
	"ssd-stack/hybrid": {
		{723349, 201163, 493068, 8148, 6742},
		{209085, 5167, 9277, 155915, 12832, 6974, 5168},
		{90348, 43399, 25339, 7547, 6183},
	},
	"ssd-stack/top-down-only": {
		{765626, 201163, 493068, 55064, 7763},
		{296910, 5167, 9277, 155915, 100544, 11811, 5192},
		{231028, 43399, 139288, 33754, 6183},
	},
}

// TestVirtualTimeGolden pins the hybrid engine's cost accounting: every
// storage placement in every traversal mode, plus a run that degrades
// after the forward device dies, must reproduce the recorded virtual
// times bit for bit.
func TestVirtualTimeGolden(t *testing.T) {
	list, err := generator.Generate(generator.Config{Scale: 10, EdgeFactor: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][][]int64{}
	for _, sc := range goldenScenarios() {
		for _, mode := range []bfs.Mode{bfs.ModeHybrid, bfs.ModeTopDownOnly, bfs.ModeBottomUpOnly} {
			got[sc.Name+"/"+mode.String()] = goldenTimes(t, list, sc, mode)
		}
	}
	faulted := core.ScenarioPCIeFlash.WithFaults(faults.Config{Seed: 7, DieAfterReads: 40})
	faulted.Name = "pcie-forward-dies"
	got[faulted.Name+"/hybrid"] = goldenTimes(t, list, faulted, bfs.ModeHybrid)

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		runs := got[name]
		want, ok := goldenVirtualTimes[name]
		if !ok || fmt.Sprint(want) != fmt.Sprint(runs) {
			fmt.Fprintf(&b, "\t%q: {\n", name)
			for _, r := range runs {
				fmt.Fprintf(&b, "\t\t%#v,\n", r)
			}
			fmt.Fprintf(&b, "\t},\n")
		}
	}
	if b.Len() > 0 {
		t.Fatalf("virtual times differ from the golden values; got:\n%s", b.String())
	}
	if len(got) != len(goldenVirtualTimes) {
		t.Fatalf("%d golden cases, %d run", len(goldenVirtualTimes), len(got))
	}
}
