package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's origin; Parent is the ID of the span that caused it (0 for a
// root) and Trace ties the spans of one injection together as
// "campaign:ordinal".
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, when the
// trial ends, so recording costs no I/O while the study runs.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now returns the current time on the tracer's clock.
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// add records a finished span and returns its ID.
func (t *tracer) add(parent int, name, trace string, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Trace: trace, Start: start, End: end})
	return id
}

// time runs f inside a span and returns the span's ID. On a nil
// tracer it only runs f, so untraced trials share the traced code.
func (t *tracer) time(parent int, name string, f func() error) (int, error) {
	if t == nil {
		return 0, f()
	}
	start := t.now()
	err := f()
	return t.add(parent, name, "", start, t.now()), err
}

// open starts a span whose children are recorded before it ends; close
// fills in its end time.
func (t *tracer) open(parent int, name string) int {
	if t == nil {
		return 0
	}
	return t.add(parent, name, "", t.now(), 0)
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.origin))
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
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

// selfTimes returns each span's duration minus the part of its
// interval covered by its children. Children of a parallel phase
// overlap one another, so the covered part is the length of the union
// of their intervals, clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - unionWithin(kids[s.ID], s.Start, s.End)
	}
	return out
}

// unionWithin is the total length of the union of intervals, clipped
// to [lo, hi].
func unionWithin(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for i, x := range s {
		if i == 0 || x[0] > curHi {
			if i > 0 {
				flush()
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	flush()
	return total
}

// layerRow is one line of the "where the time goes" table.
type layerRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfS  float64 `json:"self_s"`
	TotalS float64 `json:"total_s"`
}

// whereTimeGoes sums self and total time per span name, largest self
// time first.
func whereTimeGoes(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.SelfS += float64(self[s.ID]) / 1e9
		r.TotalS += float64(s.dur()) / 1e9
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfS != out[j].SelfS {
			return out[i].SelfS > out[j].SelfS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// renderTable prints the table with each layer's share of the wall
// time.
func renderTable(w io.Writer, title string, rows []layerRow, wallS float64) {
	fmt.Fprintf(w, "where the time goes — %s\n", title)
	fmt.Fprintf(w, "  wall %.3f s; self time excludes child spans and sums over parallel workers, so shares can pass 100%%\n", wallS)
	fmt.Fprintf(w, "  %-28s %8s %10s %7s %10s\n", "span", "count", "self s", "self %", "total s")
	fmt.Fprintf(w, "  %s\n", strings.Repeat("-", 67))
	for _, r := range rows {
		share := 0.0
		if wallS > 0 {
			share = 100 * r.SelfS / wallS
		}
		fmt.Fprintf(w, "  %-28s %8d %10.3f %6.1f%% %10.3f\n", r.Name, r.Count, r.SelfS, share, r.TotalS)
	}
}
