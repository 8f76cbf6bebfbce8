// Command benchmark is the repository's benchmark: four fixed workloads
// over the semi-external BFS system, each reporting end-to-end metrics
// from an untraced run (--trace 0) or per-layer metrics from a traced run
// (--trace 1). See README.md for the workloads, the metrics and the
// layer-to-metric map.
//
//	go build -o bench . && ./bench --workload g500-pcie-hybrid --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"semibfs/internal/edgelist"
)

// setups is the fewest set-ups an untraced run times (one per round of
// roundLoop); setup_s is their median.
const setups = 3

// params is what one workload run receives.
type params struct {
	Scale   int     // log2 vertices (the smoke test shrinks it)
	Seed    uint64  // root and update-stream seed (graphs are fixed; see graphSeed)
	Seconds float64 // measured-phase budget
	Setups  int     // fewest set-ups (rounds) timed; setup_s is their median
}

// outcome is what one workload run measured.
type outcome struct {
	Attempted, Failed int
	// SetupWall / PassWall are wall seconds per set-up and per measured
	// pass; the end-to-end wall metrics are their medians.
	SetupWall, PassWall []float64
	// SearchV / SearchTEPS are per-search virtual seconds and TEPS of the
	// first pass; QueryLat per-query virtual arrival-to-finish seconds.
	SearchV, SearchTEPS, QueryLat []float64
	CapacityQPS                   float64
	// Layer holds the traced run's per-layer metrics.
	Layer map[string]float64
	// Notes are human-readable lines printed before the result.
	Notes []string
	// firstErr is the first failed check, for the report.
	firstErr string
	// excluded is the wall time of the current pass spent on work that
	// belongs to no pass (resetting state between passes).
	excluded time.Duration
}

// untimed excludes the time since t0 from the current pass.
func (o *outcome) untimed(t0 time.Time) {
	o.excluded += time.Since(t0)
}

// check counts one attempted operation and whether its output was
// correct. A failed check fails the run; none is ever skipped.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.Attempted++
	if !ok {
		o.Failed++
		if o.firstErr == "" {
			o.firstErr = fmt.Sprintf(format, args...)
		}
	}
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// workload is one benchmark input set: a fixed configuration of the
// system plus an input generator driven by the seed.
type workload struct {
	Name  string
	Scale int // default SCALE
	Run   func(p params, rec *recorder) (*outcome, error)
}

var workloads = []workload{
	{"g500-pcie-hybrid", 16, runG500},
	{"ssd-topdown-stack", 16, runSSD},
	{"serve-pcie-updates", 16, runServe},
	{"grid2d-pcie", 15, runGrid},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEndMetrics derives the end-to-end metrics of an untraced run.
func endToEndMetrics(o *outcome) map[string]float64 {
	searchTail, _ := tail(o.SearchV)
	queryTail, _ := tail(o.QueryLat)
	return map[string]float64{
		"setup_s":               median(o.SetupWall),
		"run_wall_s":            median(o.PassWall),
		"peak_rss_mib":          peakRSSMiB(),
		"success_rate":          1 - ratio(float64(o.Failed), float64(o.Attempted)),
		"teps_hmean":            hmean(o.SearchTEPS),
		"search_vtime_p50_ms":   median(o.SearchV) * 1e3,
		"search_vtime_tail_ms":  searchTail * 1e3,
		"query_latency_p50_ms":  median(o.QueryLat) * 1e3,
		"query_latency_tail_ms": queryTail * 1e3,
		"capacity_qps":          o.CapacityQPS,
	}
}

// build renders values against a catalog: every catalog metric must be
// present and finite.
func build(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured-phase budget in wall seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace-event file of a traced run (default .bench_build/trace-<workload>.json)")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProf := fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		fmt.Fprintf(os.Stderr, "benchmark: unknown --workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive")
		return 2
	}
	p := params{Scale: w.Scale, Seed: *seed, Seconds: *seconds, Setups: setups}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	rep, notes, err := measure(w, p, *trace == 1, *traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
		return 1
	}
	if *memProf != "" {
		if err := writeHeapProfile(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	for _, n := range notes {
		fmt.Println("#", n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measure runs the workload untraced (trace false) or as a traced run.
// The traced run first repeats the workload untraced in the same process
// with the fewest set-ups and half the time budget, then traced with the
// other half, and reports the difference as the tracing overhead.
func measure(w workload, p params, traced bool, traceOut string) (*report, []string, error) {
	if !traced {
		o, err := w.Run(p, nil)
		if err != nil {
			return nil, nil, err
		}
		m, err := build(endToEnd, endToEndMetrics(o))
		if err != nil {
			return nil, nil, err
		}
		return finish(o, m), notesOf(w, p, o), nil
	}

	p.Setups = 1
	p.Seconds /= 2
	ref, err := w.Run(p, nil)
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder()
	o, err := w.Run(p, rec)
	if err != nil {
		return nil, nil, err
	}
	values := make(map[string]float64, len(perLayer))
	for k, v := range o.Layer {
		values[k] = v
	}
	self := rec.selfSeconds()
	for _, d := range perLayer {
		if layer, ok := strings.CutSuffix(d.Name, ".self_s"); ok {
			values[d.Name] = self[layer]
		}
	}
	values["trace.setup_overhead_s"] = median(o.SetupWall) - median(ref.SetupWall)
	values["trace.run_wall_overhead_s"] = median(o.PassWall) - median(ref.PassWall)
	m, err := build(perLayer, values)
	if err != nil {
		return nil, nil, err
	}
	if traceOut == "" {
		traceOut = filepath.Join(".bench_build", "trace-"+w.Name+".json")
	}
	if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
		return nil, nil, err
	}
	meta := map[string]any{"workload": w.Name, "seed": p.Seed, "scale": p.Scale}
	if err := rec.writeChrome(traceOut, meta); err != nil {
		return nil, nil, fmt.Errorf("write trace: %w", err)
	}
	// Both halves' checks count: the untraced half ran the same checks.
	o.Attempted += ref.Attempted
	o.Failed += ref.Failed
	if o.firstErr == "" {
		o.firstErr = ref.firstErr
	}
	notes := notesOf(w, p, o)
	notes = append(notes, fmt.Sprintf("trace: %d spans written to %s", len(rec.spans), traceOut))
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		notes = append(notes, fmt.Sprintf("self time %-9s %.4f s", l, self[l]))
	}
	return finish(o, m), notes, nil
}

func finish(o *outcome, m map[string]metricValue) *report {
	return &report{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: m}
}

func notesOf(w workload, p params, o *outcome) []string {
	notes := []string{fmt.Sprintf("workload %s: SCALE %d, seed %d, GOMAXPROCS %d, %d set-ups, %d measured passes",
		w.Name, p.Scale, p.Seed, runtime.GOMAXPROCS(0), len(o.SetupWall), len(o.PassWall))}
	notes = append(notes, fmt.Sprintf("set-up wall s %.3f, pass wall s %.3f", o.SetupWall, o.PassWall))
	notes = append(notes, tailNote("search_vtime_tail_ms", o.SearchV), tailNote("query_latency_tail_ms", o.QueryLat))
	notes = append(notes, o.Notes...)
	if o.firstErr != "" {
		notes = append(notes, fmt.Sprintf("FAILED %d of %d checks; first: %s", o.Failed, o.Attempted, o.firstErr))
	}
	return notes
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// roundLoop runs a workload's measured phase, a fixed set of n units
// (search roots, or open-loop queries) per pass, in rounds. Each round
// sets up a fresh system (one setup_s sample), collects the set-up's
// garbage, and runs the next of `blocks` consecutive blocks of the units
// on it: one pass spreads over `blocks` systems built one after the
// other. Rounds go on, a pass at a time, until at least p.Setups rounds
// have run and another pass of the last one's length would overrun the
// budget. A pass's wall time is the sum of its blocks' wall times;
// run_wall_s is the median pass.
//
// init runs once, untimed, on the first round's system before its block.
// block runs units [lo, hi) of pass `pass` on sys, built from list; the
// time it excludes with o.untimed is no part of the pass.
//
// A pass timed on one system in one stretch spread by 22-28% between runs
// on a shared 2-CPU host (g500-pcie-hybrid, grid2d-pcie). Two causes
// showed: the same searches on two grids built one after the other in one
// process ran up to 47% apart for the whole life of each grid, even with
// their passes interleaved; and a fixed memory-bound loop ran up to ±10%
// apart in different 10-second stretches. A pass spread over several
// systems and the length of the run averages both.
func roundLoop[S io.Closer](o *outcome, p params, rec *recorder, n, blocks int,
	build func(*edgelist.List) (S, error),
	init func(sys S, list *edgelist.List) error,
	block func(sys S, list *edgelist.List, pass, lo, hi int) error) error {
	var measured, passWall float64
	for r := 0; ; r++ {
		pass, b := r/blocks, r%blocks
		sys, list, err := setUpOnce(o, p, rec, build)
		if err != nil {
			return err
		}
		if r == 0 {
			if err := init(sys, list); err != nil {
				sys.Close()
				return err
			}
		}
		runtime.GC()
		end := rec.begin("bench.block")
		t0 := time.Now()
		o.excluded = 0
		err = block(sys, list, pass, b*n/blocks, (b+1)*n/blocks)
		d := time.Since(t0) - o.excluded
		end(map[string]any{"pass": pass, "block": b})
		if cerr := sys.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		passWall += d.Seconds()
		if b < blocks-1 {
			continue
		}
		o.PassWall = append(o.PassWall, passWall)
		measured += passWall
		if r+1 >= p.Setups && measured+passWall > p.Seconds {
			return nil
		}
		passWall = 0
	}
}
