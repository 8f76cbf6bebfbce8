package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's exported entry point, recorded
// from the benchmark's side of the call.
type span struct {
	ID     int
	Parent int // 0 for a root span
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	Args   map[string]any
}

// recorder keeps spans in memory for one traced run and writes them out
// at the end. A nil *recorder is the untraced run: every method is a
// no-op, so untraced runs pay no timing or allocation cost per call.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int // open span IDs, innermost last
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under the innermost open span and returns the
// function that closes it. args, when non-nil, is called at close time
// and its counters are attached to the span (counters snapshotted at the
// same boundary as the span).
func (r *recorder) begin(name string) func(args map[string]any) {
	if r == nil {
		return func(map[string]any) {}
	}
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(r.epoch)})
	r.stack = append(r.stack, id)
	return func(args map[string]any) {
		s := &r.spans[id-1]
		s.End = time.Since(r.epoch)
		s.Args = args
		r.stack = r.stack[:len(r.stack)-1]
	}
}

// layerOf maps a span name such as "csr.BuildForward" to its layer.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfSeconds returns each layer's self time: a span's duration minus
// the part of it that its child spans cover, summed per layer. Children
// of one span never overlap, because the benchmark calls layers from a
// single goroutine.
func (r *recorder) selfSeconds() map[string]float64 {
	child := make(map[int]time.Duration)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for _, s := range r.spans {
		out[layerOf(s.Name)] += (s.End - s.Start - child[s.ID]).Seconds()
	}
	return out
}

// durations returns the wall durations, in seconds, of every span with
// the given name, in call order.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// traceEvent is one Chrome trace-event ("X" = complete event); the
// format opens in chrome://tracing and Perfetto.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON. Every span is
// on one thread, so the viewer nests them by time containment, which
// matches the recorded parent links.
func (r *recorder) writeChrome(path string, meta map[string]any) error {
	events := make([]traceEvent, 0, len(r.spans))
	for _, s := range r.spans {
		args := map[string]any{"span_id": s.ID, "parent_id": s.Parent}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, traceEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1, Args: args,
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
