package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Tracing records a span around each call the benchmark makes into a
// layer: name, start, end, the span that caused it, and the request it
// belongs to. Spans are kept in memory, per worker and without locks, and
// written out when the run ends. Aggregates (count, total time, time
// covered by child spans) are kept for every span, stored or not, so the
// per-layer table does not depend on the storage cap.

// spansPerBuffer caps the spans one worker keeps for the span file; a
// traced embedded run makes millions of calls.
const spansPerBuffer = 1 << 16

type span struct {
	name, parent int32 // parent: index in the same buffer, -1 for a root
	req          uint64
	start, end   int64 // ns since the tracer's epoch
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	n, total, child int64
}

func (a spanAgg) meanUs() float64     { return ratio(float64(a.total), float64(a.n)) / 1e3 }
func (a spanAgg) meanSelfUs() float64 { return ratio(float64(a.total-a.child), float64(a.n)) / 1e3 }

type tracer struct {
	epoch time.Time
	names []string // fixed before any buffer is made

	mu   sync.Mutex
	bufs []*spanBuf
}

// newTracer makes a tracer for the given span names; a span's name is its
// index in names.
func newTracer(names ...string) *tracer {
	return &tracer{epoch: time.Now(), names: names}
}

// buffer returns a new per-worker span buffer.
func (t *tracer) buffer() *spanBuf {
	b := &spanBuf{t: t, agg: make([]spanAgg, len(t.names))}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// since converts a time to the tracer's clock.
func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// agg sums one span name over every buffer.
func (t *tracer) agg(name int) spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	var a spanAgg
	for _, b := range t.bufs {
		a.n += b.agg[name].n
		a.total += b.agg[name].total
		a.child += b.agg[name].child
	}
	return a
}

// write stores every kept span as one tab-separated line:
// name, start_ns, end_ns, parent (line number within the file's spans,
// -1 for a root) and request id. It returns the spans written and the
// spans not kept.
func (t *tracer) write(path string) (written, dropped int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# name\tstart_ns\tend_ns\tparent\treq")
	t.mu.Lock()
	for _, b := range t.bufs {
		base := written
		for _, s := range b.spans {
			parent := int64(-1)
			if s.parent >= 0 {
				parent = int64(base) + int64(s.parent)
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", t.names[s.name], s.start, s.end, parent, s.req)
		}
		written += len(b.spans)
		dropped += b.dropped
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	return written, dropped, f.Close()
}

// spanBuf is one worker's spans; only that worker touches it until the
// run ends.
type spanBuf struct {
	t       *tracer
	spans   []span
	dropped int
	agg     []spanAgg
}

// open starts a span that will have children; it returns the span's
// index, or -1 when the buffer is full (the span still counts in the
// aggregates once closed).
func (b *spanBuf) open(name int, req uint64, start time.Time) int32 {
	if len(b.spans) >= spansPerBuffer {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{name: int32(name), parent: -1, req: req, start: b.t.since(start)})
	return int32(len(b.spans) - 1)
}

// close ends the span open returned; child is the time its children
// covered.
func (b *spanBuf) close(idx int32, name int, start, end time.Time, child time.Duration) {
	d := end.Sub(start).Nanoseconds()
	a := &b.agg[name]
	a.n++
	a.total += d
	a.child += child.Nanoseconds()
	if idx >= 0 {
		b.spans[idx].end = b.t.since(end)
	}
}

// add records a finished span with no children under parent (-1 for a
// root) and returns its duration.
func (b *spanBuf) add(name int, req uint64, parent int32, start, end time.Time) time.Duration {
	d := end.Sub(start)
	a := &b.agg[name]
	a.n++
	a.total += d.Nanoseconds()
	if len(b.spans) >= spansPerBuffer {
		b.dropped++
		return d
	}
	b.spans = append(b.spans, span{name: int32(name), parent: parent, req: req,
		start: b.t.since(start), end: b.t.since(end)})
	return d
}
