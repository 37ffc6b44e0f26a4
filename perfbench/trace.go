package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval the benchmark observed around a call into a
// layer. Spans of one request share Req; Parent names the span that caused
// it (0 for a root).
type span struct {
	ID     int
	Parent int
	Req    int // request index, or -1 for in-process measurements
	Name   string
	Start  time.Duration // offset from the tracer's start
	End    time.Duration
	Args   map[string]any
}

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id. Safe on a nil tracer.
func (t *tracer) add(parent, req int, name string, start, end time.Duration, args map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end, Args: args})
	return id
}

// timed runs fn inside a root span named name and returns its duration.
func (t *tracer) timed(name string, fn func() error) (time.Duration, error) {
	start := time.Since(t.t0)
	err := fn()
	end := time.Since(t.t0)
	t.add(0, -1, name, start, end, nil)
	return end - start, err
}

// write saves the spans as a Chrome trace-event file (chrome://tracing,
// Perfetto): one row per request, in-process measurements on row 0.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	t.mu.Lock()
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		for k, v := range s.Args {
			args[k] = v
		}
		evs = append(evs, event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: s.Req + 1, Args: args})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

func (rs *runState) tracePath() string {
	return filepath.Join(rs.o.workdir, fmt.Sprintf("trace-%s-seed%d.json", rs.w.name, rs.o.seed))
}
