package main

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/snowplow/internal/serve"
)

// span is one timed call at a layer boundary, in nanoseconds since the
// tracer started. Parent 0 marks a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced operations run the same code with no span cost.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores a span observed between start and end.
func (t *tracer) record(name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(t.next.Add(1), name, parent, start, end)
}

func (t *tracer) add(id int64, name string, parent int64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// open reserves a span id for a call whose children are recorded before it
// ends; close records it under that id.
func (t *tracer) open() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) close(id int64, name string, parent int64, start time.Time) {
	if t == nil {
		return
	}
	t.add(id, name, parent, start, time.Now())
}

// spanTotal is one span name's count, total time and self time: its
// duration less the part of it that its child spans cover.
type spanTotal struct {
	name            string
	count           int
	totalMs, selfMs float64
}

// totals sums the spans by name, in order of first appearance.
func (t *tracer) totals() []spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []spanTotal
	index := map[string]int{}
	for _, s := range t.spans {
		i, ok := index[s.Name]
		if !ok {
			i = len(out)
			index[s.Name] = i
			out = append(out, spanTotal{name: s.Name})
		}
		dur := float64(s.End - s.Start)
		out[i].count++
		out[i].totalMs += dur / 1e6
		out[i].selfMs += (dur - covered(children[s.ID])) / 1e6
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	for i, s := range spans {
		if i == 0 || s.Start > end {
			total += s.End - s.Start
			end = s.End
		} else if s.End > end {
			total += s.End - end
			end = s.End
		}
	}
	return float64(total)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// tracedInferrer wraps a server with a span per inference query, from
// submission to the delivered reply. It forwards GraphCacheCapacity so the
// fuzzer's deterministic cache simulation runs exactly as on the bare
// server.
type tracedInferrer struct {
	srv    *serve.Server
	tr     *tracer
	parent int64

	submitted atomic.Int64
	refused   atomic.Int64
	wg        sync.WaitGroup
	mu        sync.Mutex
	latencyUs []float64
}

func (ti *tracedInferrer) observe(start time.Time, name string) {
	end := time.Now()
	ti.tr.record(name, ti.parent, start, end)
	ti.mu.Lock()
	ti.latencyUs = append(ti.latencyUs, float64(end.Sub(start).Nanoseconds())/1e3)
	ti.mu.Unlock()
}

func (ti *tracedInferrer) Infer(q serve.Query) (serve.Prediction, error) {
	ti.submitted.Add(1)
	start := time.Now()
	p, err := ti.srv.Infer(q)
	if err != nil {
		ti.refused.Add(1)
		ti.tr.record("serve.refused", ti.parent, start, time.Now())
		return p, err
	}
	ti.observe(start, "serve.query")
	return p, nil
}

func (ti *tracedInferrer) InferAsync(q serve.Query) (<-chan serve.Prediction, error) {
	ti.submitted.Add(1)
	start := time.Now()
	reply, err := ti.srv.InferAsync(q)
	if err != nil {
		ti.refused.Add(1)
		ti.tr.record("serve.refused", ti.parent, start, time.Now())
		return nil, err
	}
	// The server delivers exactly one Prediction per accepted query (an
	// error one on Close), so each forwarder ends by the time the server
	// is closed; wait() then joins them.
	out := make(chan serve.Prediction, 1)
	ti.wg.Add(1)
	go func() {
		defer ti.wg.Done()
		p := <-reply
		ti.observe(start, "serve.query")
		out <- p
	}()
	return out, nil
}

func (ti *tracedInferrer) Healthy() bool           { return ti.srv.Healthy() }
func (ti *tracedInferrer) Stats() serve.Stats      { return ti.srv.Stats() }
func (ti *tracedInferrer) GraphCacheCapacity() int { return ti.srv.GraphCacheCapacity() }

// wait joins the reply forwarders; call it after closing the server.
func (ti *tracedInferrer) wait() { ti.wg.Wait() }

// epochFrame is the cluster protocol's barrier frame type (frameEpoch in
// internal/cluster/wire.go); compressedBit marks a flate-compressed frame.
const (
	epochFrame    = 0x13
	compressedBit = 0x80
	frameHeader   = 5 // 4-byte big-endian payload length + type byte
)

// tracedConn wraps a cluster worker's connection. It times writes and
// blocked reads and scans the inbound frame headers so that
// each barrier frame from the coordinator closes one epoch span.
type tracedConn struct {
	net.Conn
	tr     *tracer
	parent int64

	writeNs, readNs atomic.Int64

	// Inbound frame scanner; only Read touches it, and the worker never
	// reads from two goroutines at once.
	hdr       [frameHeader]byte
	hdrN      int
	remaining int
	lastEpoch time.Time
	epochMs   []float64
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.writeNs.Add(time.Since(start).Nanoseconds())
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	now := time.Now()
	c.readNs.Add(now.Sub(start).Nanoseconds())
	c.scan(p[:n], now)
	return n, err
}

// scan advances the frame scanner over inbound bytes.
func (c *tracedConn) scan(b []byte, now time.Time) {
	for len(b) > 0 {
		if c.remaining > 0 {
			k := min(c.remaining, len(b))
			c.remaining -= k
			b = b[k:]
			continue
		}
		k := copy(c.hdr[c.hdrN:], b)
		c.hdrN += k
		b = b[k:]
		if c.hdrN < frameHeader {
			return
		}
		c.hdrN = 0
		c.remaining = int(c.hdr[0])<<24 | int(c.hdr[1])<<16 | int(c.hdr[2])<<8 | int(c.hdr[3])
		if c.hdr[4]&^compressedBit == epochFrame {
			if !c.lastEpoch.IsZero() {
				c.tr.record("cluster.epoch", c.parent, c.lastEpoch, now)
				c.epochMs = append(c.epochMs, float64(now.Sub(c.lastEpoch).Nanoseconds())/1e6)
			}
			c.lastEpoch = now
		}
	}
}
