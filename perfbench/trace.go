package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"occusim/internal/fleet"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// spanKind names a layer boundary the benchmark times from outside.
type spanKind uint8

const (
	kGen          spanKind = iota // sender building one batch
	kSend                         // sender's Uplink.SendBatch / Gateway.IngestBatch call
	kDeviceHTTP                   // device client round trip (http.RoundTripper)
	kFleetHandler                 // fleet.Handler serving one batch upload
	kFleetRead                    // fleet.Handler serving one federated read
	kShardCall                    // fleet.Shard decorator: one delivery to a shard
	kShardHTTP                    // HTTPShard client round trip
	kBMSHandler                   // bms.Server.Handler serving one batch
	numKinds
)

var kindNames = [numKinds]string{
	"gen", "device.send", "device.http", "fleet.handler", "fleet.read",
	"shard.call", "shard.http", "bms.handler",
}

// Headers the benchmark's own wrappers use to pass span identity across
// an HTTP hop. The pipeline ignores them.
const (
	hdrSpan  = "X-Perfbench-Span"
	hdrTrace = "X-Perfbench-Trace"
)

// traceID is a batch's identity: its device and the (epoch, seq) of its
// first report. Spans carry it unformatted, so tagging one costs no
// allocation.
type traceID struct {
	Device     string
	Epoch, Seq uint64
}

func (t traceID) String() string {
	if t.Device == "" {
		return ""
	}
	b := make([]byte, 0, len(t.Device)+24)
	b = append(b, t.Device...)
	b = append(b, '/')
	b = strconv.AppendUint(b, t.Epoch, 10)
	b = append(b, '/')
	b = strconv.AppendUint(b, t.Seq, 10)
	return string(b)
}

// parseTrace reads a traceID from its String form; a malformed value
// yields the zero ID.
func parseTrace(s string) traceID {
	rest, seq, ok := cutLast(s)
	if !ok {
		return traceID{}
	}
	dev, epoch, ok := cutLast(rest)
	if !ok {
		return traceID{}
	}
	e, err1 := strconv.ParseUint(epoch, 10, 64)
	q, err2 := strconv.ParseUint(seq, 10, 64)
	if err1 != nil || err2 != nil {
		return traceID{}
	}
	return traceID{Device: dev, Epoch: e, Seq: q}
}

func cutLast(s string) (before, after string, ok bool) {
	i := strings.LastIndexByte(s, '/')
	if i < 0 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}

// span is one timed call at a layer boundary. Trace is the batch
// identity wherever the wrapper can see it; Parent is filled at record
// time when the caller is known and by link() otherwise.
type span struct {
	ID, Parent uint64
	Kind       spanKind
	Shard      int8 // shard index for shard-side spans, -1 otherwise
	Trace      traceID
	Start, End int64 // ns since the tracer's epoch
}

// maxKeptSpans bounds the spans held for the trace file; aggregates
// cover every span regardless.
const maxKeptSpans = 20000

// tracer records spans while on. Wrappers consult on before doing any
// work, so an installed but idle tracer costs one atomic load per call.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int
	agg     [numKinds]kindAgg
	reqB    int64 // device request body bytes while on
}

// kindAgg sums one kind's spans.
type kindAgg struct {
	N   int64
	Sum int64 // ns
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.agg[s.Kind].N++
	t.agg[s.Kind].Sum += s.End - s.Start
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// takeAgg returns and resets the per-kind sums and device bytes.
func (t *tracer) takeAgg() (agg [numKinds]kindAgg, reqBytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	agg, reqBytes = t.agg, t.reqB
	t.agg, t.reqB = [numKinds]kindAgg{}, 0
	return agg, reqBytes
}

func batchTrace(batch []transport.Report) traceID {
	if len(batch) == 0 {
		return traceID{}
	}
	return traceID{batch[0].Device, batch[0].Epoch, batch[0].Seq}
}

// deviceRT wraps a sender's HTTP transport. The sender's goroutine is
// the only caller, so the current send span is read without locking.
type deviceRT struct {
	t    *tracer
	w    *worker
	next http.RoundTripper
}

func (rt *deviceRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.t.active() {
		return rt.next.RoundTrip(req)
	}
	id := rt.t.newID()
	req = req.Clone(req.Context())
	req.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
	req.Header.Set(hdrTrace, rt.w.trace.String())
	start := rt.t.now()
	resp, err := rt.next.RoundTrip(req)
	rt.t.record(span{ID: id, Parent: rt.w.cur, Kind: kDeviceHTTP, Shard: -1, Trace: rt.w.trace, Start: start, End: rt.t.now()})
	if req.ContentLength > 0 {
		rt.t.mu.Lock()
		rt.t.reqB += req.ContentLength
		rt.t.mu.Unlock()
	}
	return resp, err
}

// shardRT wraps one HTTPShard client's transport. Its parent shard.call
// span is found by link(): several gateway goroutines may share it.
type shardRT struct {
	t     *tracer
	shard int8
	next  http.RoundTripper
}

func (rt *shardRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.t.active() || req.Method != http.MethodPost {
		return rt.next.RoundTrip(req)
	}
	id := rt.t.newID()
	req = req.Clone(req.Context())
	req.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
	start := rt.t.now()
	resp, err := rt.next.RoundTrip(req)
	rt.t.record(span{ID: id, Kind: kShardHTTP, Shard: rt.shard, Start: start, End: rt.t.now()})
	return resp, err
}

// tracedHandler times a server's batch uploads (as kind) and, on the
// gateway, its federated reads.
func (t *tracer) tracedHandler(next http.Handler, kind spanKind, shard int8) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active() {
			next.ServeHTTP(w, r)
			return
		}
		k := kind
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/api/v1/observations:batch":
		case kind == kFleetHandler && r.Method == http.MethodGet &&
			(r.URL.Path == "/api/v1/occupancy" || r.URL.Path == "/api/v1/rollup"):
			k = kFleetRead
		default:
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		start := t.now()
		next.ServeHTTP(w, r)
		t.record(span{ID: t.newID(), Parent: parent, Kind: k, Shard: shard, Trace: parseTrace(r.Header.Get(hdrTrace)), Start: start, End: t.now()})
	})
}

// tracedShard decorates a fleet.Shard, timing each delivery. It also
// forwards the verbatim-frame fast path so tracing keeps the gateway
// on the route it takes untraced.
type tracedShard struct {
	fleet.Shard
	t     *tracer
	shard int8
}

func (s *tracedShard) IngestBatch(reports []transport.Report) ([]string, error) {
	if !s.t.active() {
		return s.Shard.IngestBatch(reports)
	}
	start := s.t.now()
	rooms, err := s.Shard.IngestBatch(reports)
	s.t.record(span{ID: s.t.newID(), Kind: kShardCall, Shard: s.shard, Trace: batchTrace(reports), Start: start, End: s.t.now()})
	return rooms, err
}

func (s *tracedShard) IngestFrame(frame []byte, reports int) ([]string, error) {
	fi, ok := s.Shard.(fleet.FrameIngester)
	if !ok {
		return nil, fleet.ErrPresplitMismatch
	}
	if !s.t.active() {
		return fi.IngestFrame(frame, reports)
	}
	start := s.t.now()
	rooms, err := fi.IngestFrame(frame, reports)
	end := s.t.now()
	s.t.record(span{ID: s.t.newID(), Kind: kShardCall, Shard: s.shard, Trace: frameTrace(frame), Start: start, End: end})
	return rooms, err
}

var errFirstReport = errors.New("first report seen")

// frameTrace reads the batch identity from a frame's first report.
func frameTrace(frame []byte) traceID {
	var id traceID
	_, _ = wire.Scan(frame, func(payload []byte) error {
		_, err := wire.ScanReports(payload, func(device []byte, _ float64, epoch, seq uint64) error {
			id = traceID{string(device), epoch, seq}
			return errFirstReport
		})
		return err
	})
	return id
}

// link fills the parents the wrappers could not see: a shard delivery's
// caller is the gateway span of the same batch, a shard client round
// trip sits inside a delivery to the same shard, and a span whose
// parent is known inherits its trace.
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.spans
	sort.Slice(sp, func(i, j int) bool { return sp[i].Start < sp[j].Start })
	byID := make(map[uint64]int, len(sp))
	gateway := map[traceID][]int{}
	for i, s := range sp {
		byID[s.ID] = i
		if (s.Kind == kFleetHandler || s.Kind == kSend) && s.Trace.Device != "" {
			gateway[s.Trace] = append(gateway[s.Trace], i)
		}
	}
	// The innermost gateway-side span of the batch wins (a handler sits
	// inside the device's send).
	for i := range sp {
		s := &sp[i]
		if s.Kind != kShardCall || s.Parent != 0 {
			continue
		}
		for _, j := range gateway[s.Trace] {
			if sp[j].Start <= s.Start && s.End <= sp[j].End && (s.Parent == 0 || sp[j].Kind == kFleetHandler) {
				s.Parent = sp[j].ID
			}
		}
	}
	var open []int // shard.call spans by start, scanned backwards
	for i := range sp {
		s := &sp[i]
		switch s.Kind {
		case kShardCall:
			open = append(open, i)
		case kShardHTTP:
			for k := len(open) - 1; k >= 0 && k >= len(open)-64; k-- {
				c := sp[open[k]]
				if c.Shard == s.Shard && c.Start <= s.Start && s.End <= c.End {
					s.Parent, s.Trace = c.ID, c.Trace
					break
				}
			}
		}
	}
	for i := range sp {
		s := &sp[i]
		if s.Trace.Device == "" && s.Parent != 0 {
			if j, ok := byID[s.Parent]; ok {
				s.Trace = sp[j].Trace
			}
		}
	}
}

// writeSpans links the kept spans and writes them as JSON lines.
func (t *tracer) writeSpans(path string, out io.Writer) error {
	t.link()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent,omitempty"`
		Name   string `json:"name"`
		Trace  string `json:"trace,omitempty"`
		Shard  int8   `json:"shard"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(line{s.ID, s.Parent, kindNames[s.Kind], s.Trace.String(), s.Shard, s.Start, s.End}); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	dropped := t.dropped
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if dropped > 0 {
		fmt.Fprintf(out, "trace: wrote %d spans to %s (%d more counted, not kept)\n", len(t.spans), path, dropped)
	} else {
		fmt.Fprintf(out, "trace: wrote %d spans to %s\n", len(t.spans), path)
	}
	return nil
}
