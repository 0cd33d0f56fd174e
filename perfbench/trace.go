package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Spans of one message
// share its index as Key; spans of one enrollment share its identity.
// Parent is 0 for a root span or when the parent is found by Key.
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Key    string        `json:"key"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory; WriteFile dumps them when the run ends. A
// nil *Tracer records nothing, so untraced runs share the traced code path
// at the cost of a nil check.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer. Its span buffer is preallocated so recording
// rarely allocates inside a measured phase.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), spans: make([]Span, 0, 1<<16)}
}

// Now returns the tracer clock, or zero when tracing is off.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// Record stores a finished span and returns its identifier.
func (t *Tracer) Record(name, key string, parent int64, start, end time.Duration) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Key: key, Start: start, End: end})
	return id
}

// Spans returns a copy of the spans recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Named returns the recorded spans with the given name.
func (t *Tracer) Named(name string) []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Covered returns how much of [start, end) the union of the children's
// intervals covers. Overlapping children (parallel share requests) count
// once; parts outside the window do not count.
func Covered(start, end time.Duration, children []Span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, start), min(c.End, end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, x := range iv {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// SelfTime is the span's duration minus the part its children cover.
func SelfTime(s Span, children []Span) time.Duration {
	return s.Dur() - Covered(s.Start, s.End, children)
}

// Children indexes spans by parent: by Parent identifier when set, else by
// Key under the parents' name, so spans recorded where the parent's
// identifier is unknown (a replica handler) still join their enrollment.
func Children(spans []Span, parentName string) map[int64][]Span {
	byKey := map[string]int64{}
	for _, s := range spans {
		if s.Name == parentName {
			byKey[s.Key] = s.ID
		}
	}
	out := map[int64][]Span{}
	for _, s := range spans {
		switch {
		case s.Parent != 0:
			out[s.Parent] = append(out[s.Parent], s)
		case s.Name != parentName:
			if id, ok := byKey[s.Key]; ok {
				out[id] = append(out[id], s)
			}
		}
	}
	return out
}

// spanUs returns the spans' durations in microseconds.
func spanUs(spans []Span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = durUs(s.Dur())
	}
	return out
}
