package main

import (
	"runtime/metrics"
	"sort"
	"strings"

	"occusim/internal/obs"
)

// quantile is the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return float64(xs[i])
}

// openWindows is how many equal windows an open-loop phase is cut into
// for its latency percentiles.
const openWindows = 10

// windowQuantile is the median over the phase's windows of each
// window's q-quantile, each sample placed by its due time. One stall or
// pause moves one window's figure, not the reported one.
func windowQuantile(xs []timing, span int64, q float64) float64 {
	return median(windowQuantiles(xs, span, q))
}

// windowQuantiles is each window's q-quantile, in window order.
func windowQuantiles(xs []timing, span int64, q float64) []float64 {
	buckets := make([][]int64, openWindows)
	for _, x := range xs {
		i := int(x.due * openWindows / span)
		i = min(max(i, 0), openWindows-1)
		buckets[i] = append(buckets[i], x.ns)
	}
	var qs []float64
	for _, b := range buckets {
		if len(b) > 0 {
			qs = append(qs, quantile(b, q))
		}
	}
	return qs
}

// values returns the measured times of xs.
func values(xs []timing) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = x.ns
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// div is a/b, or 0 when b is 0, so an absent layer reads 0 rather than
// NaN.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Runtime counters the benchmark reads.
const (
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmLiveBytes  = "/gc/heap/live:bytes"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

// runtimeSample reads the named runtime/metrics values as float64.
func runtimeSample(names ...string) map[string]float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make(map[string]float64, len(names))
	for _, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[x.Name] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[x.Name] = x.Value.Float64()
		}
	}
	return out
}

// obsView sums an obs snapshot's series across labels.
type obsView obs.Snapshot

func matches(key, name string) bool {
	return key == name || strings.HasPrefix(key, name+"{")
}

func (v obsView) counter(name string) float64 {
	var n float64
	for k, x := range v.Counters {
		if matches(k, name) {
			n += x
		}
	}
	return n
}

// hist returns a histogram's count and sum (raw units: ns for timings).
func (v obsView) hist(name string) (count, sum float64) {
	for k, h := range v.Histograms {
		if matches(k, name) {
			count += float64(h.Count)
			sum += float64(h.Sum)
		}
	}
	return count, sum
}

// obsDelta accumulates counter and histogram differences between
// snapshots taken around the traced phases.
type obsDelta struct {
	counters map[string]float64
	count    map[string]float64
	sum      map[string]float64
}

func newObsDelta() *obsDelta {
	return &obsDelta{counters: map[string]float64{}, count: map[string]float64{}, sum: map[string]float64{}}
}

// Series the per-layer metrics read.
var (
	deltaCounters = []string{"bms_ingest_reports_total", "bms_ingest_dedup_drops_total"}
	deltaHists    = []string{
		"bms_ingest_seconds", "fleet_split_seconds", "fleet_reassembly_seconds",
		"wal_append_seconds", "wal_fsync_seconds", "wal_group_commit_frames", "wal_compact_seconds",
	}
)

func (d *obsDelta) add(before, after obsView) {
	for _, n := range deltaCounters {
		d.counters[n] += after.counter(n) - before.counter(n)
	}
	for _, n := range deltaHists {
		c0, s0 := before.hist(n)
		c1, s1 := after.hist(n)
		d.count[n] += c1 - c0
		d.sum[n] += s1 - s0
	}
}

// mean is a histogram's mean over the accumulated phases, in its raw unit.
func (d *obsDelta) mean(name string) float64 { return div(d.sum[name], d.count[name]) }
