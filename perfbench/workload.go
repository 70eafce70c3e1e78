package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// face is how the benchmark's devices reach the gateway.
type face int

const (
	// faceBinaryHTTP: transport.ShardSplitter devices post pre-split
	// binary frames to fleet.Handler, which forwards them to bms shards
	// behind their own HTTP listeners through fleet.HTTPShard clients.
	faceBinaryHTTP face = iota
	// faceInproc: devices call fleet.Gateway.IngestBatch over
	// in-process shards; no HTTP and no codec.
	faceInproc
	// faceJSONHTTP: transport.HTTPUplink devices post JSON batches to
	// fleet.Handler, which re-splits them over in-process shards (the
	// single-box bmsd -shards deployment).
	faceJSONHTTP
)

func (f face) String() string {
	switch f {
	case faceBinaryHTTP:
		return "binary-http"
	case faceInproc:
		return "inproc"
	default:
		return "json-http"
	}
}

// workload is one traffic mix. Every workload runs 4 shards with the
// production settings (debounce 2, retention 1000, obs registries
// attached as bmsd attaches them, default compaction threshold).
type workload struct {
	name    string
	face    face
	durable bool // shards log to a WAL under store.FsyncBatch
	// devices is the crowd size; senders the sender goroutines (and
	// device connections) the devices share.
	devices, senders int
	// openRate is the fixed offered load of the open-loop phase in
	// reports/s; readRate the fixed federated-read poll rate beside it.
	openRate, readRate float64
	// rollupEvery makes every n-th read a GET /api/v1/rollup, which
	// merges every committed event, instead of a GET /api/v1/occupancy
	// (0: occupancy only).
	rollupEvery int
	// resendEvery resends every n-th batch verbatim after its ack, as
	// a phone does after a lost ack (0: never).
	resendEvery int
	// warmReports is how many reports each device sends before any
	// phase is measured; templateLen is the length of each device's
	// synthesized stream, which later reports repeat with their clock
	// shifted by whole laps.
	warmReports, templateLen int
	// rounds is how many fresh pipelines carry the closed loop, one
	// slice each (see runPlain); the run sets up one more for the open
	// loop.
	rounds int
}

// Shared shape of every workload.
const (
	shards    = 4
	debounce  = 2
	retention = 1000
	batchSize = 10
	modelSeed = 17
)

// workloads is the benchmark's traffic table. Each open-loop rate is a
// fixed share, a fifth to two fifths, of the closed-loop ingest_rps the
// workload reached on a 2-CPU host when the benchmark was defined
// (BENCHMARK.json quotes it). At higher shares upload latency on such a
// host was set by the scheduler and the collector rather than by the
// pipeline, and varied by half from run to run. inproc-wal's rate also
// keeps the WAL growth of its open loop, over a 20-second run, to
// about one compaction interval of a shard (see runPlain).
//
// The in-process workloads use one sender: the whole report path then
// runs on it, and the second CPU is left to the collector, which made
// their throughput steadier from run to run. Each workload takes as
// many closed-loop rounds as a run's time allows: inproc-volatile warms
// up fastest and varies most between pipeline instances, so it takes
// six; the durable and JSON workloads take two, as their warm-ups and
// compactions are slow enough that more would double the run.
//
// http-json-readmix is runnable but not in BENCHMARK.json: with a
// 2048-device warm-up per pipeline, four workloads did not fit the
// benchmark's time budget.
var workloads = []workload{
	{
		name: "http-binary", face: faceBinaryHTTP,
		devices: 128, senders: 2,
		openRate: 14000, readRate: 100,
		warmReports: 1000, templateLen: 300, rounds: 4,
	},
	{
		name: "inproc-volatile", face: faceInproc,
		devices: 128, senders: 1,
		openRate: 75000, readRate: 100,
		warmReports: 1000, templateLen: 300, rounds: 6,
	},
	{
		name: "inproc-wal", face: faceInproc, durable: true,
		devices: 128, senders: 1,
		openRate: 9000, readRate: 100,
		warmReports: 1000, templateLen: 300, rounds: 2,
	},
	{
		name: "http-json-readmix", face: faceJSONHTTP,
		devices: 2048, senders: 1,
		openRate: 5000, readRate: 40, rollupEvery: 4,
		resendEvery: 8,
		warmReports: 60, templateLen: 60, rounds: 2,
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// provenance is what two results must share to be comparable.
type provenance struct {
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	CPUModel    string  `json:"cpu_model"`
	GoVersion   string  `json:"go_version"`
	WALFS       string  `json:"wal_fs"`
	Face        string  `json:"face"`
	Devices     int     `json:"devices"`
	Senders     int     `json:"senders"`
	BatchSize   int     `json:"batch_size"`
	Shards      int     `json:"shards"`
	OpenRate    float64 `json:"open_rate_rps"`
	ReadRate    float64 `json:"read_rate_per_s"`
	RollupEvery int     `json:"rollup_every"`
	ResendEvery int     `json:"resend_every"`
}

func newProvenance(w workload, seed uint64, seconds float64, trace bool, walDir string) provenance {
	return provenance{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), WALFS: fsType(walDir),
		Face: w.face.String(), Devices: w.devices, Senders: w.senders,
		BatchSize: batchSize, Shards: shards,
		OpenRate: w.openRate, ReadRate: w.readRate, RollupEvery: w.rollupEvery, ResendEvery: w.resendEvery,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}
