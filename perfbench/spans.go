package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call. Spans of one series or request share a trace
// number; Parent is the ID of the span that caused this one (0 for a
// root).
type span struct {
	Trace   int     `json:"trace"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartMs float64 `json:"startMs"` // since the run began
	DurMs   float64 `json:"durMs"`
}

// spanLog keeps spans in memory for the length of a traced run and
// aggregates them by name; write dumps them once the run is over.
type spanLog struct {
	t0     time.Time
	spans  []span
	byName map[string]*layerTotal
}

// layerTotal is the summed duration and call count of one span name.
type layerTotal struct {
	calls int
	total time.Duration
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), byName: make(map[string]*layerTotal)}
}

// add records a finished span and returns its ID.
func (l *spanLog) add(trace, parent int, name string, start time.Time, d time.Duration) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		StartMs: ms(start.Sub(l.t0)), DurMs: ms(d),
	})
	t := l.byName[name]
	if t == nil {
		t = &layerTotal{}
		l.byName[name] = t
	}
	t.calls++
	t.total += d
	return id
}

// timed runs f inside a span and returns the span's ID.
func (l *spanLog) timed(trace, parent int, name string, f func()) int {
	start := time.Now()
	f()
	return l.add(trace, parent, name, start, time.Since(start))
}

// totalMs is the summed duration of every span with this name.
func (l *spanLog) totalMs(name string) float64 {
	if t := l.byName[name]; t != nil {
		return ms(t.total)
	}
	return 0
}

// calls is how many spans carry this name.
func (l *spanLog) calls(name string) int {
	if t := l.byName[name]; t != nil {
		return t.calls
	}
	return 0
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
