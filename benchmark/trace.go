package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one tick share Tick; Parent
// is the ID of the span that caused this one (0 for a tick's root span).
// Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Tick   int64  `json:"tick"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; write puts them in one JSON file when the
// run ends. The spans are recorded here, in the benchmark, around public
// calls into each layer — the server itself is not instrumented.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name string, parent int, tick int64) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Tick: tick,
		Start: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

// end closes the span and returns its duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	return s.dur()
}

// selfNS is a span's self time: its duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfNS(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, end := int64(0), parent.Start
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		covered += v[1] - max(v[0], end)
		end = v[1]
	}
	return parent.dur() - covered
}

// rootSelfNS sums the self time of every root span: the time a traced tick
// spent in the harness itself rather than inside a layer call.
func (t *tracer) rootSelfNS() int64 {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var total int64
	for _, s := range t.spans {
		if s.Parent == 0 {
			total += selfNS(s, kids[s.ID])
		}
	}
	return total
}

// write stores the spans as one JSON array in dir and returns the path.
func (t *tracer) write(dir, workload string) (string, error) {
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
