package core

import (
	"fmt"
	"strings"

	"semibfs/internal/bfs"
	"semibfs/internal/vp"
)

// Algorithm selects which vertex program a scenario's runs execute. The
// zero value is AlgoBFS, so existing scenarios and callers are unchanged.
type Algorithm int

const (
	// AlgoBFS is single-source breadth-first search (bfs.BFS, the program
	// bfs.Runner binds to the engine).
	AlgoBFS Algorithm = iota
	// AlgoComponents is connected components by min-label propagation
	// (vp.Components).
	AlgoComponents
	// AlgoPageRank is damped PageRank by dense pull sweeps (vp.PageRank).
	AlgoPageRank
)

// String returns the CLI spelling of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoBFS:
		return "bfs"
	case AlgoComponents:
		return "cc"
	case AlgoPageRank:
		return "pagerank"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps a CLI spelling to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "bfs":
		return AlgoBFS, nil
	case "cc", "components":
		return AlgoComponents, nil
	case "pagerank", "pr":
		return AlgoPageRank, nil
	default:
		return AlgoBFS, fmt.Errorf("core: unknown algorithm %q (want bfs, cc, or pagerank)", s)
	}
}

// Algorithms returns the supported algorithms in report order.
func Algorithms() []Algorithm {
	return []Algorithm{AlgoBFS, AlgoComponents, AlgoPageRank}
}

// NewProgram instantiates the scenario's vertex program over this system's
// graphs. The PageRank degree array comes from the backward access (both
// CSR directions share the symmetric degree), so it is consistent with
// what the engine's scans will stream regardless of storage placement.
func (s *System) NewProgram(pr vp.PageRankOptions) (bfs.Program, error) {
	switch s.Scenario.Algorithm {
	case AlgoBFS:
		return bfs.NewBFS(), nil
	case AlgoComponents:
		return vp.NewComponents(), nil
	case AlgoPageRank:
		deg := make([]int64, s.Part.N)
		for v := range deg {
			deg[v] = s.Backward.Degree(int64(v))
		}
		return vp.NewPageRank(deg, pr), nil
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", s.Scenario.Algorithm)
	}
}

// NewEngine returns the hybrid engine binding prog to the system's graphs
// — the generalized counterpart of NewRunner, which binds bfs.BFS.
func (s *System) NewEngine(prog bfs.Program, cfg bfs.Config) (*bfs.Engine, error) {
	return bfs.NewEngine(s.Forward, s.Backward, s.Part, prog, cfg)
}
