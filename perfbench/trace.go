package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced call into a layer. Times are nanoseconds since
// the tracer started; Parent is 0 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run
// ends. It is safe for concurrent use: fabric workers record spans
// from their own goroutines, naming their parent explicitly.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	path  string
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enable(on bool) { t.on.Store(on) }
func (t *tracer) enabled() bool  { return t.on.Load() }

// reset drops every span (a repeated set-up is traced only once).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// begin opens a span and returns its id, or 0 when tracing is off.
func (t *tracer) begin(name string, parent int) int {
	if !t.on.Load() {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Start: now})
	return len(t.spans)
}

// end closes the span id (0 is ignored).
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns, per module (the span name up to its first dot),
// the summed self time in seconds of the closed spans under the roots
// named root: each span's duration minus the part of its interval its
// children cover. Children of one span may overlap (two fabric
// workers), so their intervals are merged first.
func (t *tracer) selfTimes(root string) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	var walk func(s span)
	walk = func(s span) {
		if s.End == 0 {
			return
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, curLo, curHi int64
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if k.End == 0 || hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
			walk(k)
		}
		covered += curHi - curLo
		mod, _, _ := strings.Cut(s.Name, ".")
		out[mod] += float64(s.End-s.Start-covered) / 1e9
	}
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name == root {
			walk(s)
		}
	}
	return out
}

// write saves the spans as JSON under dir and remembers the path.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	t.path = filepath.Join(dir, name)
	return os.WriteFile(t.path, b, 0o644)
}
