package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// smokeScale is each workload's SCALE for the smoke run: the smallest
// that still has enough non-isolated roots for the workload's root count.
var smokeScale = map[string]int{
	"g500-pcie-hybrid":   11,
	"ssd-topdown-stack":  9,
	"serve-pcie-updates": 12,
	"grid2d-pcie":        9,
}

// TestSmokeEveryMetric runs every workload at a tiny SCALE, untraced and
// traced, and checks that each run emits exactly the metrics
// BENCHMARK.json names, with the units it names, and passes its own
// output checks — so no change can drop or rename a metric silently.
func TestSmokeEveryMetric(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	type metric struct{ Name, Unit string }
	want := map[bool][]metric{}
	for _, m := range bf.EndToEnd {
		want[false] = append(want[false], metric{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		want[true] = append(want[true], metric{m.Name, m.Unit})
	}

	for _, wf := range bf.Workloads {
		w, ok := lookup(wf.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not run by the benchmark", wf.Name)
		}
		for _, traced := range []bool{false, true} {
			p := params{Scale: smokeScale[w.Name], Seed: 3, Seconds: 0.01, Setups: 2}
			rep, _, err := measure(w, p, traced, filepath.Join(t.TempDir(), "trace.json"))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d checks failed", w.Name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(want[traced]) {
				t.Errorf("%s traced=%v: emitted %d metrics, BENCHMARK.json names %d", w.Name, traced, len(rep.Metrics), len(want[traced]))
			}
			for _, m := range want[traced] {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit):
					t.Errorf("invalid metric name %q or unit %q", m.Name, m.Unit)
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestTraceIsChromeJSON checks that a traced run's span file is Chrome
// trace-event JSON whose spans nest inside their parents.
func TestTraceIsChromeJSON(t *testing.T) {
	w, _ := lookup("g500-pcie-hybrid")
	path := filepath.Join(t.TempDir(), "trace.json")
	if _, _, err := measure(w, params{Scale: 11, Seed: 5, Seconds: 0.01, Setups: 1}, true, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	byID := map[float64]traceEvent{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("event %+v is not a complete event", e)
		}
		byID[e.Args["span_id"].(float64)] = e
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		seen[e.Name] = true
		if pid := e.Args["parent_id"].(float64); pid != 0 {
			p := byID[pid]
			if e.Ts < p.Ts || e.Ts+e.Dur > p.Ts+p.Dur+0.01 {
				t.Errorf("span %s [%v,+%v] escapes parent %s [%v,+%v]", e.Name, e.Ts, e.Dur, p.Name, p.Ts, p.Dur)
			}
		}
	}
	for _, name := range []string{"generator.Generate", "core.Build", "csr.BuildForward", "semiext.OffloadForward", "bfs.Runner.Run", "validate.Run"} {
		if !seen[name] {
			t.Errorf("trace has no %s span", name)
		}
	}
}
