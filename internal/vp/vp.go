// Package vp holds the vertex programs other than breadth-first search —
// connected components and PageRank — that run on the hybrid engine of
// internal/bfs (bfs.Engine, bfs.Program) over the same semi-external
// storage stack as BFS, plus a compact codec for their per-vertex state.
// See internal/bfs/program.go for the hook order, state-ownership rules,
// and direction hints every program follows.
package vp
