package main

import (
	"fmt"
	"io"
)

// tracedRun is what the traced run measured: spans summed per kind and
// obs deltas over the traced closed-loop phases, the traced open-loop
// phase, the layer replay, and the registry at the end of the run.
type tracedRun struct {
	w        workload
	agg      [numKinds]kindAgg // traced closed-loop phases
	reqBytes float64           // device request bytes in those phases
	reports  float64           // unique reports acknowledged in them
	obs      *obsDelta
	walGrow  float64 // WAL bytes appended in them
	gcCycles float64
	gcCPU    float64 // GC CPU seconds
	cpu      float64 // total CPU seconds

	openAgg  [numKinds]kindAgg // traced open-loop phase
	late     []int64           // generator lateness in that phase, ns
	replay   replayResult
	final    obsView
	uploads  float64 // upload attempts over the whole run
	shed     float64
	overhead float64 // trace.overhead_pct
}

// ledgerRow is one per-report cost in the sender-busy ledger, in ns
// summed over the traced closed-loop phases.
type ledgerRow struct {
	name string
	ns   float64
}

// ledger splits sender-busy time (batch generation plus the upload
// call) into the layers the spans and obs sums bound. Each row is a
// measured difference of nested spans or an obs sum, except
// classify/store/tracker, which multiplies the isolated replay costs by
// the reports those layers handled. Whatever the rows do not explain is
// the unattributed row, so the rows add up to sender-busy time.
func (t *tracedRun) ledger() (rows []ledgerRow, busy float64) {
	a := func(k spanKind) float64 { return float64(t.agg[k].Sum) }
	send, shardCall := a(kSend), a(kShardCall)
	busy = a(kGen) + send
	bmsIngest := t.obs.sum["bms_ingest_seconds"]

	var devClient, devHop, gwSelf, shardHop, shardDecode float64
	switch t.w.face {
	case faceInproc:
		gwSelf = send - shardCall
		shardDecode = shardCall - bmsIngest
	case faceBinaryHTTP:
		devClient = send - a(kDeviceHTTP)
		devHop = a(kDeviceHTTP) - a(kFleetHandler)
		gwSelf = a(kFleetHandler) - shardCall
		shardHop = shardCall - a(kBMSHandler)
		shardDecode = a(kBMSHandler) - bmsIngest
	default:
		devClient = send - a(kDeviceHTTP)
		devHop = a(kDeviceHTTP) - a(kFleetHandler)
		gwSelf = a(kFleetHandler) - shardCall
		shardDecode = shardCall - bmsIngest
	}
	fsync := t.obs.sum["wal_fsync_seconds"]
	walAppend := t.obs.sum["wal_append_seconds"] - fsync
	ingested := t.obs.counters["bms_ingest_reports_total"]
	fresh := ingested - t.obs.counters["bms_ingest_dedup_drops_total"]
	cst := ingested*(t.replay.PredictNs+t.replay.AddBatchNsPerReport) + fresh*t.replay.ObserveNsPerReport

	rows = []ledgerRow{
		{"generator", a(kGen)},
		{"device encode/client", devClient},
		{"device HTTP hop", devHop},
		{"gateway self", gwSelf},
		{"shard HTTP hop", shardHop},
		{"shard decode", shardDecode},
		{"WAL append", walAppend},
		{"fsync wait", fsync},
		{"classify/store/tracker", cst},
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.ns
	}
	return append(rows, ledgerRow{"unattributed", busy - sum}), busy
}

func (t *tracedRun) printLedger(out io.Writer, rows []ledgerRow, busy float64) (attributedPct float64) {
	un := rows[len(rows)-1].ns
	attributedPct = 100 * div(busy-un, busy)
	fmt.Fprintf(out, "ledger %s: %.0f reports in the traced closed loop, sender-busy %.0f ns/report\n",
		t.w.name, t.reports, div(busy, t.reports))
	for _, r := range rows {
		fmt.Fprintf(out, "  %-24s %10.1f ns/report %6.1f%%\n", r.name, div(r.ns, t.reports), 100*div(r.ns, busy))
	}
	fmt.Fprintf(out, "  attributed %.1f%% of sender-busy time\n", attributedPct)
	if n := t.obs.count["wal_compact_seconds"]; n > 0 {
		fmt.Fprintf(out, "  (%.0f WAL compactions, %.0f ms in all, ran beside the senders; ingest waiting on them is unattributed)\n",
			n, t.obs.sum["wal_compact_seconds"]/1e6)
	}
	return attributedPct
}

// layerMetrics names every per-layer metric of BENCHMARK.json. A layer
// the workload does not run reads 0.
func (t *tracedRun) layerMetrics(rows []ledgerRow, attributedPct float64) map[string]metric {
	a := t.agg
	mean := func(k spanKind) float64 { return div(float64(a[k].Sum), float64(a[k].N)) }
	row := func(name string) float64 {
		for _, r := range rows {
			if r.name == name {
				return r.ns
			}
		}
		return 0
	}
	gwEntry, shardEntry := kFleetHandler, kShardCall
	if t.w.face == faceInproc {
		gwEntry = kSend
	}
	if t.w.face == faceBinaryHTTP {
		shardEntry = kBMSHandler
	}
	routed, maxRouted := 0.0, 0.0
	for k, v := range t.final.Counters {
		if matches(k, "fleet_routed_total") {
			routed += v
			maxRouted = max(maxRouted, v)
		}
	}
	ingested := t.obs.counters["bms_ingest_reports_total"]
	fsyncs := t.obs.count["wal_fsync_seconds"]
	_, compactSum := t.final.hist("wal_compact_seconds")
	compactions := t.final.counter("wal_compactions_total")
	ingestHist := t.final.Histograms["bms_ingest_seconds"]
	totalReports := t.final.counter("bms_ingest_reports_total")

	return map[string]metric{
		"gen.late_p99_ms":                 {quantile(t.late, 0.99) / 1e6, "ms"},
		"transport.send_us":               {mean(kSend) / 1e3, "us"},
		"transport.http_rt_us":            {mean(kDeviceHTTP) / 1e3, "us"},
		"transport.bytes_per_report":      {div(t.reqBytes, t.reports), "B"},
		"transport.retries":               {t.final.counter("transport_retries_total"), "count"},
		"wire.encode_ns_per_report":       {t.replay.EncodeNsPerReport, "ns"},
		"wire.decode_ns_per_report":       {t.replay.DecodeNsPerReport, "ns"},
		"wire.decode_allocs":              {t.replay.DecodeAllocs, "allocs"},
		"ring.max_shard_share":            {div(maxRouted, routed), "ratio"},
		"ring.owner_ns":                   {t.replay.OwnerNs, "ns"},
		"fleet.handler_us":                {mean(gwEntry) / 1e3, "us"},
		"fleet.self_us":                   {div(row("gateway self"), float64(a[gwEntry].N)) / 1e3, "us"},
		"fleet.split_us":                  {t.obs.mean("fleet_split_seconds") / 1e3, "us"},
		"fleet.reassembly_us":             {t.obs.mean("fleet_reassembly_seconds") / 1e3, "us"},
		"fleet.presplit_ratio":            {div(t.final.counter("fleet_presplit_forwarded_total"), t.uploads), "ratio"},
		"fleet.digest_miss":               {t.final.counter("fleet_presplit_digest_miss_total"), "count"},
		"fleet.read_us":                   {div(float64(t.openAgg[kFleetRead].Sum), float64(t.openAgg[kFleetRead].N)) / 1e3, "us"},
		"overload.shed":                   {t.shed, "count"},
		"bms.handler_us":                  {mean(shardEntry) / 1e3, "us"},
		"bms.decode_us":                   {div(row("shard decode"), float64(a[shardEntry].N)) / 1e3, "us"},
		"bms.ingest_us_per_report":        {div(t.obs.sum["bms_ingest_seconds"], ingested) / 1e3, "us"},
		"bms.ingest_p99_us":               {float64(ingestHist.P99) / 1e3, "us"},
		"bms.dedup_ratio":                 {div(t.final.counter("bms_ingest_dedup_drops_total"), totalReports), "ratio"},
		"classify.predict_ns":             {t.replay.PredictNs, "ns"},
		"classify.predict_allocs":         {t.replay.PredictAllocs, "allocs"},
		"store.add_batch_ns_per_report":   {t.replay.AddBatchNsPerReport, "ns"},
		"store.wal_append_us":             {t.obs.mean("wal_append_seconds") / 1e3, "us"},
		"store.wal_fsync_us":              {t.obs.mean("wal_fsync_seconds") / 1e3, "us"},
		"store.fsyncs_per_kreport":        {1000 * div(fsyncs, t.reports), "1/kreport"},
		"store.frames_per_fsync":          {t.obs.mean("wal_group_commit_frames"), "frames"},
		"store.wal_bytes_per_report":      {div(t.walGrow, t.reports), "B"},
		"store.compactions":               {compactions, "count"},
		"store.compact_ms":                {div(compactSum, compactions) / 1e6, "ms"},
		"occupancy.observe_ns_per_report": {t.replay.ObserveNsPerReport, "ns"},
		"runtime.gc_cpu_frac":             {div(t.gcCPU, t.cpu), "ratio"},
		"runtime.gc_cycles_per_kreport":   {1000 * div(t.gcCycles, t.reports), "1/kreport"},
		"trace.overhead_pct":              {t.overhead, "%"},
		"ledger.attributed_pct":           {attributedPct, "%"},
	}
}
