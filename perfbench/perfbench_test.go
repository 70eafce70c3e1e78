package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"occusim/internal/fleet"
	"occusim/internal/occupancy"
	"occusim/internal/transport"
)

// tiny shrinks a workload to a few devices and a low offered rate,
// keeping its face, durability, sender count and resend schedule.
func tiny(w workload) workload {
	w.devices = 8
	w.warmReports, w.templateLen = 20, 60
	w.openRate, w.readRate = 2000, 20
	w.rounds = 1
	return w
}

// benchmarkSpec is the part of BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmokeEveryWorkload runs each workload of the benchmark's table at
// tiny size, untraced and traced, and checks the gate passed, nothing
// failed, and every metric BENCHMARK.json names is emitted with its
// unit. Every workload BENCHMARK.json names must be in the table.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	for _, sw := range spec.Workloads {
		if _, err := workloadByName(sw.Name); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(w.name+map[bool]string{false: "/plain", true: "/traced"}[traced], func(t *testing.T) {
				dir := t.TempDir()
				cfg := config{
					w: tiny(w), seed: 3, seconds: 0.6, trace: traced,
					workdir: filepath.Join(dir, "work"), spans: filepath.Join(dir, "spans.jsonl"),
				}
				var out bytes.Buffer
				res, err := run(cfg, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
					if !strings.Contains(out.String(), "unattributed") {
						t.Errorf("traced run printed no ledger:\n%s", out.String())
					}
					if _, err := os.Stat(cfg.spans); err != nil {
						t.Errorf("traced run wrote no spans: %v", err)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// gateFixture ingests a few devices through an in-process pipeline and
// returns it with its generator and one committed room entry that is
// not the device's first event.
func gateFixture(t *testing.T) (*pipeline, *generator, occupancy.Event) {
	t.Helper()
	w, err := workloadByName("inproc-volatile")
	if err != nil {
		t.Fatal(err)
	}
	w = tiny(w)
	w.warmReports, w.templateLen = 120, 120
	p, err := setup(w, 5, t.TempDir(), setupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.close)
	r := newRunner(p)
	if err := r.warm(w.warmReports); err != nil {
		t.Fatal(err)
	}
	if err := checkGate(p, r.gen, nil); err != nil {
		t.Fatalf("untampered gate: %v", err)
	}
	events, err := p.gw.Events()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range events {
		if seen[e.Device] && e.Kind == occupancy.Enter {
			return p, r.gen, e
		}
		seen[e.Device] = true
	}
	t.Fatal("no device entered a second room")
	return nil, nil, occupancy.Event{}
}

// seqAt is the sequence number of the report at time at: report k of a
// stream is at k report periods and carries seq k+1.
func seqAt(at time.Duration) uint64 {
	return uint64(at/time.Duration(reportPeriod*float64(time.Second))) + 1
}

func TestGateFailsOnDroppedReport(t *testing.T) {
	p, g, e := gateFixture(t)
	drop := seqAt(e.At)
	err := checkGate(p, g, func(_ int, reports []transport.Report) []transport.Report {
		out := reports[:0:0]
		for _, r := range reports {
			if r.Device != e.Device || r.Seq != drop {
				out = append(out, r)
			}
		}
		return out
	})
	if err == nil {
		t.Fatalf("gate passed with %s seq %d dropped from the reference", e.Device, drop)
	}
}

func TestGateFailsOnReportAppliedTwice(t *testing.T) {
	p, g, e := gateFixture(t)
	// The entry committed on the second of two consecutive reports in
	// the new room; applying the first of them twice commits it a
	// report early. The copy is unsequenced so dedup cannot absorb it.
	twice := seqAt(e.At) - 1
	err := checkGate(p, g, func(_ int, reports []transport.Report) []transport.Report {
		var out []transport.Report
		for _, r := range reports {
			out = append(out, r)
			if r.Device == e.Device && r.Seq == twice {
				r.Epoch, r.Seq = 0, 0
				out = append(out, r)
			}
		}
		return out
	})
	if err == nil {
		t.Fatalf("gate passed with %s seq %d applied twice in the reference", e.Device, twice)
	}
}

// stallShard holds one delivery for a fixed time.
type stallShard struct {
	fleet.Shard
	calls *atomic.Int64
	at    int64
	stall time.Duration
}

func (s *stallShard) IngestBatch(reports []transport.Report) ([]string, error) {
	if s.calls.Add(1) == s.at {
		time.Sleep(s.stall)
	}
	return s.Shard.IngestBatch(reports)
}

// TestOpenLoopChargesStallToLaterUploads injects one stall in the
// pipeline and checks the uploads due during it carry the wait in
// their latency although their own delivery is fast: open-loop timing
// runs from each batch's due time, not from when it was sent.
func TestOpenLoopChargesStallToLaterUploads(t *testing.T) {
	w, err := workloadByName("inproc-volatile")
	if err != nil {
		t.Fatal(err)
	}
	w = tiny(w)
	w.senders = 1
	const (
		rate    = 2000.0 // reports/s: one batch due every 5 ms
		stallAt = 40     // the stalled delivery
		stall   = 150 * time.Millisecond
	)
	var calls atomic.Int64
	p, err := setup(w, 7, t.TempDir(), setupOptions{wrapShard: func(_ int, s fleet.Shard) fleet.Shard {
		return &stallShard{Shard: s, calls: &calls, at: stallAt, stall: stall}
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.close)
	r := newRunner(p)
	res, err := r.openLoop(400*time.Millisecond, rate, 0)
	if err != nil {
		t.Fatal(err)
	}
	interval := time.Duration(float64(batchSize) / rate * float64(time.Second))
	stalled := stallAt - 1 // batch index of the stalled delivery
	if got := time.Duration(res.ack[stalled].ns); got < stall {
		t.Fatalf("stalled upload took %v, want ≥ %v", got, stall)
	}
	for k := 5; k <= 20; k += 5 {
		j := stalled + k
		// Due k intervals after the stalled batch, it cannot be sent
		// before the stall ends.
		want := stall - time.Duration(k)*interval
		if got := time.Duration(res.ack[j].ns); got < want {
			t.Errorf("upload due %v after the stall began: latency %v, want ≥ %v", time.Duration(k)*interval, got, want)
		}
		if late := time.Duration(res.late[j].ns); late < want {
			t.Errorf("upload due %v after the stall began was sent %v late, want ≥ %v", time.Duration(k)*interval, late, want)
		}
	}
	if before := time.Duration(res.ack[stalled-5].ns); before > stall/3 {
		t.Errorf("upload due before the stall took %v; the stall leaked backwards", before)
	}
}
