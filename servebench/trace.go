package main

import (
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// execution share a trace ID; the execution span is their parent.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace_id"`
	ID     uint64 `json:"span_id"`
	Parent uint64 `json:"parent_id,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run calls the same code.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64
	wire   atomic.Int64 // bytes through countingConn

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newID returns a fresh trace or span ID (0 when tracing is off).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under a fresh ID from newID.
func (t *tracer) record(name string, trace, id, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Trace: trace, ID: id, Parent: parent,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// meanMillis is the mean duration of the named spans.
func (t *tracer) meanMillis(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e6
}

// writeJSON writes every span to path.
func (t *tracer) writeJSON(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// dial opens a client connection, counting its bytes when tracing.
func (t *tracer) dial(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil || t == nil {
		return conn, err
	}
	return &countingConn{Conn: conn, n: &t.wire}, nil
}

// countingConn adds every byte read or written to n.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}
