package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records one span per timed public call of a traced run. Spans stay
// in memory and are written as a Chrome trace_event file at the end. A nil
// *tracer records nothing, so the untraced (end-to-end) run takes the same
// code path with tracing off.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

type span struct {
	Name   string
	ID     string // run or job this span belongs to
	Parent int    // index of the enclosing span; -1 at top level
	Lane   int    // trace_event thread; spans sharing a lane nest
	Start  time.Duration
	End    time.Duration
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its handle (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, id string, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Lane: lane, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span h and returns its duration.
func (t *tracer) end(h int) time.Duration {
	if t == nil || h < 0 {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[h].End = now
	return now - t.spans[h].Start
}

// add records an already finished span, for work timed by the program
// itself (exp.Build's per-cell Progress events).
func (t *tracer) add(name string, parent int, id string, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Lane: lane,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// elapsed is the time since the tracer started.
func (t *tracer) elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.origin)
}

// topLevel sums the durations of the closed top-level spans.
func (t *tracer) topLevel() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Parent < 0 && s.End >= 0 {
			d += s.End - s.Start
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace_event "complete" events
// (chrome://tracing, Perfetto), with meta as the file's metadata.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	t.mu.Lock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		end := s.End
		if end < 0 {
			end = s.Start
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((end - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "span": i, "parent": s.Parent},
		})
	}
	t.mu.Unlock()
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "metadata": meta})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
