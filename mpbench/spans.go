package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the program's public functions. Parent 0 is a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder's epoch.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// spanRecorder keeps spans in memory until the run ends. A nil
// recorder records nothing (the untraced run).
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a finished span and returns its ID (0 on a nil
// recorder).
func (r *spanRecorder) add(name string, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	return id
}

// open reserves an ID for a span whose end is not known yet, so that
// children can name it as their parent; close fills it in.
func (r *spanRecorder) open(name string, parent int64, start time.Time) int64 {
	return r.add(name, parent, start, start)
}

func (r *spanRecorder) close(id int64, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = int64(end.Sub(r.epoch))
	r.mu.Unlock()
}

// selfTimes returns each layer's self time in seconds: per span name,
// the summed span durations minus the part of each span that its
// children cover.
func (r *spanRecorder) selfTimes() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range r.spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] += float64(self) / 1e9
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	return total + curE - curS
}

// write dumps every span as one JSON object per line.
func (r *spanRecorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
