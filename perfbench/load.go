package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"occusim/internal/transport"
)

// reportPeriod is the scan-and-report period of SynthCrowdStreams.
const reportPeriod = 2.0 // seconds

// generator turns each device's template stream into an endless one:
// report k of device d is template report k mod L with its clock moved
// forward by whole laps, stamped by one transport.Sequencer. A device's
// reports are generated by the one sender that owns it, in order.
type generator struct {
	streams [][]transport.Report
	seq     *transport.Sequencer
	sent    []int // reports generated per device
}

func newGenerator(streams [][]transport.Report) *generator {
	return &generator{streams: streams, seq: transport.NewSequencer(1), sent: make([]int, len(streams))}
}

// at is report k of device d before stamping.
func (g *generator) at(d, k int) transport.Report {
	tpl := g.streams[d]
	r := tpl[k%len(tpl)]
	r.AtSeconds += float64(k/len(tpl)) * float64(len(tpl)) * reportPeriod
	return r
}

// next fills dst with device d's next batch.
func (g *generator) next(dst []transport.Report, d int) []transport.Report {
	dst = dst[:0]
	for i := 0; i < batchSize; i++ {
		r := g.at(d, g.sent[d])
		g.seq.Stamp(&r)
		dst = append(dst, r)
		g.sent[d]++
	}
	return dst
}

// opStats counts operations (uploads, resends, reads) across goroutines.
type opStats struct {
	attempted, failed atomic.Int64
	uploads           atomic.Int64 // upload attempts (resends and retries included)
	acked             atomic.Int64 // unique reports acknowledged
	resent            atomic.Int64 // batches resent verbatim
}

// maxTries bounds how often one batch is retried after an error before
// the run gives up; every try counts as an attempted operation.
const maxTries = 20

// worker is one sender goroutine and the devices it owns.
type worker struct {
	r    *runner
	devs []int
	rr   int // round-robin position in devs
	send func([]transport.Report) error
	buf  []transport.Report
	n    int // batches sent, for the resend schedule

	// cur and trace identify the send span in flight, for deviceRT.
	cur   uint64
	trace traceID
}

// runner drives a pipeline with its workload's senders.
type runner struct {
	p       *pipeline
	gen     *generator
	workers []*worker
	ops     opStats
	capture [][]transport.Report // batches kept for the layer replay
	capMax  int
	capMu   sync.Mutex
	// walLast and walGrow track the WAL growth seen after each traced
	// send (see noteWAL).
	walMu   sync.Mutex
	walLast int64
	walGrow int64
}

func newRunner(p *pipeline) *runner {
	r := &runner{p: p, gen: newGenerator(p.streams)}
	for i := 0; i < p.w.senders; i++ {
		wk := &worker{r: r, buf: make([]transport.Report, 0, batchSize)}
		for d := i; d < p.w.devices; d += p.w.senders {
			wk.devs = append(wk.devs, d)
		}
		wk.send = p.newSender(wk)
		r.workers = append(r.workers, wk)
	}
	return r
}

// upload builds device d's next batch and delivers it, retrying on
// error the way a phone re-sends after a failed upload. It returns the
// time the first delivery attempt started.
func (wk *worker) upload(d int) (time.Time, error) {
	tr := wk.r.p.tr
	traced := tr.active()
	var g0 int64
	if traced {
		g0 = tr.now()
	}
	wk.buf = wk.r.gen.next(wk.buf, d)
	if traced {
		tr.record(span{ID: tr.newID(), Kind: kGen, Shard: -1, Trace: batchTrace(wk.buf), Start: g0, End: tr.now()})
		wk.r.keep(wk.buf)
	}
	sent := time.Now()
	if err := wk.deliver(); err != nil {
		return sent, err
	}
	wk.r.ops.acked.Add(batchSize)
	wk.n++
	if every := wk.r.p.w.resendEvery; every > 0 && wk.n%every == 0 {
		if err := wk.deliver(); err != nil {
			return sent, err
		}
		wk.r.ops.resent.Add(1)
	}
	return sent, nil
}

func (wk *worker) deliver() error {
	tr := wk.r.p.tr
	var err error
	for try := 0; try < maxTries; try++ {
		wk.r.ops.attempted.Add(1)
		wk.r.ops.uploads.Add(1)
		if tr.active() {
			wk.cur, wk.trace = tr.newID(), batchTrace(wk.buf)
			start := tr.now()
			err = wk.send(wk.buf)
			tr.record(span{ID: wk.cur, Kind: kSend, Shard: -1, Trace: wk.trace, Start: start, End: tr.now()})
			wk.cur = 0
			if wk.r.p.w.durable {
				wk.r.noteWAL()
			}
		} else {
			err = wk.send(wk.buf)
		}
		if err == nil {
			return nil
		}
		wk.r.ops.failed.Add(1)
	}
	return fmt.Errorf("batch %s failed %d times: %w", batchTrace(wk.buf), maxTries, err)
}

// keep copies a batch into the replay sample.
func (r *runner) keep(batch []transport.Report) {
	r.capMu.Lock()
	if len(r.capture) < r.capMax {
		r.capture = append(r.capture, append([]transport.Report(nil), batch...))
	}
	r.capMu.Unlock()
}

// noteWAL adds the WAL growth since the last look; a compaction shrinks
// the log, so only growth counts.
func (r *runner) noteWAL() {
	n := r.p.walBytes()
	r.walMu.Lock()
	if n > r.walLast {
		r.walGrow += n - r.walLast
	}
	r.walLast = n
	r.walMu.Unlock()
}

func (r *runner) takeWALGrowth() int64 {
	r.walMu.Lock()
	defer r.walMu.Unlock()
	g := r.walGrow
	r.walGrow = 0
	r.walLast = r.p.walBytes()
	return g
}

// each runs fn on every worker concurrently and returns the first error.
func (r *runner) each(fn func(i int, wk *worker) error) error {
	errs := make([]error, len(r.workers))
	var wg sync.WaitGroup
	for i, wk := range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, wk)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// warm sends each device n reports, unmeasured.
func (r *runner) warm(n int) error {
	rounds := (n + batchSize - 1) / batchSize
	return r.each(func(_ int, wk *worker) error {
		for i := 0; i < rounds; i++ {
			for _, d := range wk.devs {
				if _, err := wk.upload(d); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// closedLoop runs every sender flat out for dur, each waiting for its
// ack before the next upload, devices taken round-robin. It returns the
// unique reports acknowledged per second over the phase, and per window
// of the phase for the record.
func (r *runner) closedLoop(dur, window time.Duration) (rate float64, windows []float64, err error) {
	var stop atomic.Bool
	done := make(chan error, 1)
	start := time.Now()
	first := r.ops.acked.Load()
	go func() {
		done <- r.each(func(_ int, wk *worker) error {
			for !stop.Load() {
				d := wk.devs[wk.rr]
				wk.rr = (wk.rr + 1) % len(wk.devs)
				if _, err := wk.upload(d); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	last, lastAt := first, start
	for t := window; t <= dur; t += window {
		time.Sleep(time.Until(start.Add(t)))
		n, now := r.ops.acked.Load(), time.Now()
		windows = append(windows, float64(n-last)/now.Sub(lastAt).Seconds())
		last, lastAt = n, now
	}
	stop.Store(true)
	err = <-done
	// Uploads in flight at the stop complete inside the measured time.
	rate = float64(r.ops.acked.Load()-first) / time.Since(start).Seconds()
	return rate, windows, err
}

// timing is one open-loop sample: when it was due, as an offset from
// the phase start, and the measured time, both in ns.
type timing struct{ due, ns int64 }

// openResult holds the timings of an open-loop phase: each upload's
// latency and generator lateness, and each read's latency.
type openResult struct {
	span            int64 // phase length, ns
	ack, late, read []timing
}

// extend appends phase x as if it ran right after o, so the slices of
// a run's open loop read as one phase.
func (o *openResult) extend(x openResult) {
	shift := func(dst *[]timing, src []timing) {
		for _, t := range src {
			*dst = append(*dst, timing{t.due + o.span, t.ns})
		}
	}
	shift(&o.ack, x.ack)
	shift(&o.late, x.late)
	shift(&o.read, x.read)
	o.span += x.span
}

// openLoop offers the workload's fixed report rate for dur: batch j is
// due at start + j·batchSize/rate and goes to device j mod devices, so
// each sender owns a fixed share of the schedule and each device's
// batches stay in order. Every latency is timed from the batch's due
// time, so a stall charges the wait it imposes on every batch behind
// it. With readRate > 0 a reader polls federated reads on its own
// fixed schedule beside the uploads.
func (r *runner) openLoop(dur time.Duration, rate, readRate float64) (openResult, error) {
	interval := float64(batchSize) / rate * float64(time.Second)
	total := int(float64(dur) / interval)
	start := time.Now().Add(2 * time.Millisecond)
	S := len(r.workers)
	acks := make([][]timing, S)
	lates := make([][]timing, S)
	var reads []timing
	var readErr error
	var wg sync.WaitGroup
	if readRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reads, readErr = r.poll(start, dur, readRate)
		}()
	}
	err := r.each(func(w int, wk *worker) error {
		acks[w] = make([]timing, 0, total/S+1)
		lates[w] = make([]timing, 0, total/S+1)
		for j := w; j < total; j += S {
			off := time.Duration(float64(j) * interval)
			due := start.Add(off)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			sent, err := wk.upload(j % r.p.w.devices)
			if err != nil {
				return err
			}
			acks[w] = append(acks[w], timing{int64(off), int64(time.Since(due))})
			lates[w] = append(lates[w], timing{int64(off), int64(sent.Sub(due))})
		}
		return nil
	})
	wg.Wait()
	if err == nil {
		err = readErr
	}
	res := openResult{span: int64(dur)}
	for w := range acks {
		res.ack = append(res.ack, acks[w]...)
		res.late = append(res.late, lates[w]...)
	}
	res.read = reads
	return res, err
}

// poll issues federated reads on a fixed schedule — occupancy, with
// every rollupEvery-th read a rollup — checks each answer decodes, and
// returns each read's latency from its due time.
func (r *runner) poll(start time.Time, dur time.Duration, rate float64) ([]timing, error) {
	client := newClient(nil)
	defer client.CloseIdleConnections()
	interval := time.Duration(float64(time.Second) / rate)
	n := int(dur / interval)
	lat := make([]timing, 0, n)
	for i := 0; i < n; i++ {
		off := time.Duration(i) * interval
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.ops.attempted.Add(1)
		path := "/api/v1/occupancy"
		if every := r.p.w.rollupEvery; every > 0 && i%every == every-1 {
			path = "/api/v1/rollup"
		}
		if err := getJSON(client, r.p.gwURL+path); err != nil {
			r.ops.failed.Add(1)
			continue
		}
		lat = append(lat, timing{int64(off), int64(time.Since(due))})
	}
	return lat, nil
}

func getJSON(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var v map[string]any
	return json.Unmarshal(body, &v)
}
