package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one interval recorded at a layer boundary. Spans hold no
// pointers, so a traced run's span log costs the GC nothing to scan.
type span struct {
	name   int32 // index into tracer.names
	parent int32 // index of the causing span, -1 for a root
	req    int64 // request id shared by every span of one op, -1 if none
	start  int64 // ns since the tracer's epoch
	end    int64
}

// tracer records spans from the benchmark's own code, around its calls
// into the program. A nil *tracer records nothing, so untraced runs pay
// one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	names []string
	index map[string]int32
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), index: map[string]int32{}}
}

// now is the tracer clock: ns since the epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (-1 when t is nil).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	start := t.now()
	return t.add(name, parent, req, start, -1)
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// add records a span with explicit bounds (end -1 = still open).
func (t *tracer) add(name string, parent int, req int64, start, end int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.index[name]
	if !ok {
		n = int32(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = n
	}
	t.spans = append(t.spans, span{name: n, parent: int32(parent), req: req, start: start, end: end})
	return len(t.spans) - 1
}

// layerTimes summarizes the closed spans: per span name, every
// duration and every self time (duration minus the part of the span's
// interval its children cover), in ms.
type layerTimes struct {
	dur  map[string][]float64
	self map[string][]float64
}

func (t *tracer) summarize() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	// Children of one parent never overlap in this benchmark (each
	// layer calls the next sequentially), so their durations sum to
	// the covered part of the parent.
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	lt := layerTimes{dur: map[string][]float64{}, self: map[string][]float64{}}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		name := t.names[s.name]
		d := float64(s.end-s.start) / 1e6
		lt.dur[name] = append(lt.dur[name], d)
		lt.self[name] = append(lt.self[name], d-float64(covered[i])/1e6)
	}
	return lt
}

// spanNames returns the distinct span names recorded.
func (t *tracer) spanNames() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.names...)
}

// write dumps every span as one line of gzip-compressed CSV:
// id,parent,req,name,start_ns,end_ns. A traced solve-deep run records
// about a million round spans, 57 MB of plain CSV.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id,parent,req,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.parent, s.req, t.names[s.name], s.start, s.end)
	}
	err = w.Flush()
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
