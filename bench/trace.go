package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the bench's side of the
// layer boundary. Spans of one op share Op; Parent names the enclosing span
// of the same op and lane ("" = the op itself).
type span struct {
	Op      int    `json:"op"`
	Lane    int    `json:"lane"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// publisherLane marks spans taken on the publishing goroutine.
const publisherLane = -1

func (t *tracer) add(op, lane int, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{op, lane, name, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// layerStat is what the spans of one name reduce to.
type layerStat struct {
	// call is the median duration of one span, children included, in ms.
	call float64
	// perOp is the median, over (op, lane), of the name's summed self time:
	// duration minus what child spans of the same op and lane cover. The
	// perOp values of the spans that tile an op add up to its latency.
	perOp float64
}

// layers reduces the spans to one layerStat per span name.
func (t *tracer) layers() map[string]layerStat {
	if t == nil {
		return nil
	}
	type key struct {
		op, lane int
		name     string
	}
	children := make(map[key]int64)
	for _, s := range t.spans {
		if s.Parent != "" {
			children[key{s.Op, s.Lane, s.Parent}] += s.EndNs - s.StartNs
		}
	}
	calls := make(map[string][]float64)
	self := make(map[key]int64)
	for _, s := range t.spans {
		calls[s.Name] = append(calls[s.Name], float64(s.EndNs-s.StartNs)/1e6)
		self[key{s.Op, s.Lane, s.Name}] += s.EndNs - s.StartNs
	}
	perOp := make(map[string][]float64)
	for k, d := range self {
		if d -= children[k]; d < 0 {
			d = 0
		}
		perOp[k.name] = append(perOp[k.name], float64(d)/1e6)
	}
	out := make(map[string]layerStat, len(calls))
	for name, v := range calls {
		out[name] = layerStat{call: median(v), perOp: median(perOp[name])}
	}
	return out
}

func (t *tracer) write(dir, workload string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
