// Command perfbench is the repository's ingest-pipeline benchmark. It
// builds the whole report path in one process — devices, transport,
// wire codec, gateway, ring, bms shards with classify, store, WAL and
// occupancy — drives it with one workload of BENCHMARK.json, checks the
// final state against a reference server, and prints every metric by
// name with its unit. The last line of standard output is the JSON
// result.
//
//	go run . --workload http-binary --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// wrapper in the path. With --trace 1 it installs span wrappers around
// every layer boundary and reports the per-layer metrics, the per-report
// cost ledger and the tracing overhead, and writes the spans to a file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one named result value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run.
type config struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	workdir string // scratch space: WAL directories
	spans   string // trace file
}

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "workload seed: streams and model")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	spans := flag.String("spans", "", "trace output file (default .bench_build/spans/<workload>-<seed>.jsonl)")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fail(err)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fail(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	cfg := config{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workdir: filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())),
		spans:   *spans,
	}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.name, *seed))
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func run(cfg config, out io.Writer) (result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(cfg.workdir)
	prov, err := json.Marshal(newProvenance(cfg.w, cfg.seed, cfg.seconds, cfg.trace, cfg.workdir))
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "provenance: %s\n", prov)
	if cfg.trace {
		return runTraced(cfg, out)
	}
	return runPlain(cfg, out)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// rateWindow is the closed-loop sampling window, printed for the record.
const rateWindow = 250 * time.Millisecond

// runPlain measures the end-to-end metrics in the workload's rounds. One
// pipeline carries the open loop for the whole run; every round runs
// an open-loop slice on it, then sets up a fresh pipeline, warms it,
// runs a closed-loop slice on it, checks its gate and closes it.
//
// On a small shared host, closed-loop throughput differs by a fifth
// from one pipeline instance to the next and drifts over tens of
// seconds, while any one slice of a few seconds is steady. Fresh
// instances, with their slices spread over the whole run, turn that
// into several draws; ingest_rps is their median. setup_s is the
// median of every setup in the run.
//
// The open-loop pipeline sees no closed-loop traffic, so the state its
// uploads and reads meet holds a fixed number of reports whatever the
// host's speed: a federated rollup merges every committed event, so
// its cost grows with the history behind it. For the same reason the
// allocation figure is taken around the open-loop slices, whose volume
// is fixed, and the live heap is read at the end, when the open-loop
// pipeline is the only one left. Durable shards are compacted before
// the first slice, so their WAL growth between compactions is fixed too.
func runPlain(cfg config, out io.Writer) (result, error) {
	w := cfg.w
	var setupTimes []float64
	timedSetup := func(i int) (*pipeline, error) {
		start := time.Now()
		p, err := setup(w, cfg.seed, walDir(cfg.workdir, i), setupOptions{})
		if err == nil {
			setupTimes = append(setupTimes, time.Since(start).Seconds())
		}
		return p, err
	}
	p, err := timedSetup(0)
	if err != nil {
		return result{}, err
	}
	defer p.close()
	r := newRunner(p)
	if err := r.warm(w.warmReports); err != nil {
		return result{}, err
	}
	if err := p.quiesce(); err != nil {
		return result{}, err
	}

	slice := seconds(cfg.seconds * 0.5 / float64(w.rounds))
	var (
		open          openResult
		allocB, alloc float64 // bytes allocated and reports acked in open-loop slices
		rates         []float64
		tl            tally
	)
	for i := 1; i <= w.rounds; i++ {
		runtime.GC()
		rm0, acked0 := runtimeSample(rmAllocBytes), r.ops.acked.Load()
		o, err := r.openLoop(slice, w.openRate, w.readRate)
		if err != nil {
			return result{}, err
		}
		rm1, acked1 := runtimeSample(rmAllocBytes), r.ops.acked.Load()
		allocB += rm1[rmAllocBytes] - rm0[rmAllocBytes]
		alloc += float64(acked1 - acked0)
		open.extend(o)

		q, err := timedSetup(i)
		if err != nil {
			return result{}, err
		}
		rate, err := closedRound(q, slice, &tl, out)
		if err != nil {
			return result{}, err
		}
		rates = append(rates, rate)
	}
	if err := p.quiesce(); err != nil {
		return result{}, err
	}
	// Two cycles: the first empties sync.Pool caches into their victim
	// lists, the second frees them.
	runtime.GC()
	runtime.GC()
	live := runtimeSample(rmLiveBytes)[rmLiveBytes]
	tl.add(r, checkGate(p, r.gen, nil))
	res := tl.result(out)
	res.Metrics = map[string]metric{
		"ingest_rps":         {median(rates), "reports/s"},
		"ack_p50_ms":         {windowQuantile(open.ack, open.span, 0.50) / 1e6, "ms"},
		"ack_p90_ms":         {windowQuantile(open.ack, open.span, 0.90) / 1e6, "ms"},
		"read_p50_ms":        {windowQuantile(open.read, open.span, 0.50) / 1e6, "ms"},
		"read_p90_ms":        {windowQuantile(open.read, open.span, 0.90) / 1e6, "ms"},
		"setup_s":            {median(setupTimes), "s"},
		"alloc_b_per_report": {div(allocB, alloc), "B"},
		"live_heap_mb":       {live / (1 << 20), "MiB"},
	}
	// failed_frac is printed, not reported: the result line carries it
	// as failed/attempted, and a metric that reads 0 on every healthy
	// run cannot bound a regression as a share of its median. The p99s
	// are printed too: on a 2-CPU host they sit in the scheduler's and
	// the collector's noise, too unsteady from run to run to bound.
	fmt.Fprintf(out, "failed_frac %.6f ratio (%d of %d operations)\n", div(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	fmt.Fprintf(out, "open loop: %d uploads and %d reads in %d windows; whole phase ack p99 %.3f ms, read p99 %.3f ms, generator late p99 %.3f ms\n",
		len(open.ack), len(open.read), openWindows,
		quantile(values(open.ack), 0.99)/1e6, quantile(values(open.read), 0.99)/1e6, quantile(values(open.late), 0.99)/1e6)
	fmt.Fprintf(out, "closed loop: reports/s per round %.0f\n", rates)
	if w.durable {
		n, sum := obsView(p.met.TakeSnapshot()).hist("wal_compact_seconds")
		fmt.Fprintf(out, "open-loop pipeline: wal %.0f compactions, mean %.1f ms\n", n, div(sum, n)/1e6)
	}
	printMetrics(out, res.Metrics)
	return res, nil
}

// closedRound runs one round's closed-loop slice on the fresh pipeline
// p — warm, measure, check the gate — and closes p. Its operations and
// gate verdict go into tl.
func closedRound(p *pipeline, slice time.Duration, tl *tally, out io.Writer) (float64, error) {
	defer p.close()
	r := newRunner(p)
	if err := r.warm(p.w.warmReports); err != nil {
		return 0, err
	}
	if err := p.quiesce(); err != nil {
		return 0, err
	}
	runtime.GC()
	rate, windows, err := r.closedLoop(slice, rateWindow)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(out, "closed loop %.0f reports/s, per %v window %.0f\n", rate, rateWindow, windows)
	if p.w.durable {
		n, sum := obsView(p.met.TakeSnapshot()).hist("wal_compact_seconds")
		fmt.Fprintf(out, "  wal %.0f compactions, mean %.1f ms\n", n, div(sum, n)/1e6)
	}
	tl.add(r, checkGate(p, r.gen, nil))
	return rate, nil
}

// tally sums what the pipelines of a run did: their operations and
// their gate verdicts.
type tally struct {
	attempted, failed, acked, resent int64
	gate                             []error
}

func (t *tally) add(r *runner, gateErr error) {
	t.attempted += r.ops.attempted.Load()
	t.failed += r.ops.failed.Load()
	t.acked += r.ops.acked.Load()
	t.resent += r.ops.resent.Load()
	if gateErr != nil {
		t.gate = append(t.gate, gateErr)
	}
}

// result fills the operation counts and the gate verdict.
func (t *tally) result(out io.Writer) result {
	gateErr := errors.Join(t.gate...)
	res := result{Correct: gateErr == nil, Attempted: t.attempted, Failed: t.failed}
	if gateErr != nil {
		fmt.Fprintln(out, "correctness gate FAILED:", gateErr)
	} else {
		fmt.Fprintf(out, "correctness gate passed: federated occupancy, events and dwell match the reference server over %d reports\n", t.acked)
	}
	if res.Failed > 0 {
		fmt.Fprintf(out, "%d of %d operations failed\n", res.Failed, res.Attempted)
	}
	if t.resent > 0 {
		fmt.Fprintf(out, "%d batches resent verbatim after their ack\n", t.resent)
	}
	return res
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// tracedPairs is how many untraced/traced closed-loop phase pairs the
// traced run alternates, so slow drift in the pipeline's state weighs
// on both sides of trace.overhead_pct alike.
const tracedPairs = 3

// runTraced measures the per-layer metrics. After the warm-up it
// alternates untraced and traced closed-loop phases (their rates give
// trace.overhead_pct; the traced ones feed the ledger), runs a traced
// open-loop phase with reads, replays captured batches through the
// hidden layers, checks the gate and writes the spans.
func runTraced(cfg config, out io.Writer) (result, error) {
	w := cfg.w
	tr := newTracer()
	p, err := setup(w, cfg.seed, walDir(cfg.workdir, 0), setupOptions{tr: tr})
	if err != nil {
		return result{}, err
	}
	defer p.close()
	r := newRunner(p)
	r.capMax = 300
	if err := r.warm(w.warmReports); err != nil {
		return result{}, err
	}
	runtime.GC()

	t := &tracedRun{w: w, obs: newObsDelta()}
	phase := seconds(cfg.seconds * 0.45 / (2 * tracedPairs))
	var plain, traced []float64
	for i := 0; i < tracedPairs; i++ {
		rate, _, err := r.closedLoop(phase, rateWindow)
		if err != nil {
			return result{}, err
		}
		plain = append(plain, rate)

		before := obsView(p.met.TakeSnapshot())
		rm0 := runtimeSample(rmGCCycles, rmGCCPU, rmTotalCPU)
		acked0 := r.ops.acked.Load()
		r.takeWALGrowth()
		tr.on.Store(true)
		rate, _, err = r.closedLoop(phase, rateWindow)
		tr.on.Store(false)
		if err != nil {
			return result{}, err
		}
		traced = append(traced, rate)
		rm1 := runtimeSample(rmGCCycles, rmGCCPU, rmTotalCPU)
		t.obs.add(before, obsView(p.met.TakeSnapshot()))
		agg, reqB := tr.takeAgg()
		for k := range agg {
			t.agg[k].N += agg[k].N
			t.agg[k].Sum += agg[k].Sum
		}
		t.reqBytes += float64(reqB)
		t.reports += float64(r.ops.acked.Load() - acked0)
		t.walGrow += float64(r.takeWALGrowth())
		t.gcCycles += rm1[rmGCCycles] - rm0[rmGCCycles]
		t.gcCPU += rm1[rmGCCPU] - rm0[rmGCCPU]
		t.cpu += rm1[rmTotalCPU] - rm0[rmTotalCPU]
	}
	t.overhead = 100 * div(median(plain)-median(traced), median(plain))

	tr.on.Store(true)
	open, err := r.openLoop(seconds(cfg.seconds*0.35), w.openRate, w.readRate)
	tr.on.Store(false)
	if err != nil {
		return result{}, err
	}
	t.openAgg, _ = tr.takeAgg()
	t.late = values(open.late)

	if t.replay, err = replay(p, r.capture, seconds(cfg.seconds*0.2)); err != nil {
		return result{}, err
	}
	t.final = obsView(p.met.TakeSnapshot())
	t.uploads = float64(r.ops.uploads.Load())
	_, shed := p.gw.AdmissionStats()
	for _, srv := range p.pool.Servers {
		_, s := srv.AdmissionStats()
		shed += s
	}
	t.shed = float64(shed)

	var tl tally
	tl.add(r, checkGate(p, r.gen, nil))
	res := tl.result(out)
	if err := tr.writeSpans(cfg.spans, out); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "trace overhead: untraced %.0f vs traced %.0f reports/s\n", median(plain), median(traced))
	rows, busy := t.ledger()
	res.Metrics = t.layerMetrics(rows, t.printLedger(out, rows, busy))
	printMetrics(out, res.Metrics)
	return res, nil
}
