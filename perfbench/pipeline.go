package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/experiments"
	"occusim/internal/fleet"
	"occusim/internal/obs"
	"occusim/internal/store"
	"occusim/internal/transport"
)

// pipeline is one in-process ingest deployment: a gateway over four
// shards, its HTTP face, the model every shard runs, and the devices'
// report streams.
type pipeline struct {
	w    workload
	b    *building.Building
	pool *fleet.LocalPool
	gw   *fleet.Gateway
	met  *obs.Metrics
	snap bms.ModelSnapshot
	// gwURL is the gateway's HTTP face: uploads on the HTTP faces,
	// federated reads on every workload.
	gwURL   string
	streams [][]transport.Report
	dir     string // WAL directory (durable workloads)
	tr      *tracer

	closers []func()
	clients []*http.Client
}

// setupOptions are the knobs tests and the traced run turn.
type setupOptions struct {
	// tr, when set, installs the benchmark's span wrappers (idle until
	// tr.on is set).
	tr *tracer
	// wrapShard, when set, decorates every shard the gateway sees.
	wrapShard func(i int, s fleet.Shard) fleet.Shard
}

// newClient builds one HTTP client holding at most one connection, so
// the benchmark's connection count is what its workload says.
func newClient(wrap func(http.RoundTripper) http.RoundTripper) *http.Client {
	var rt http.RoundTripper = &http.Transport{
		MaxIdleConns:        4,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		IdleConnTimeout:     90 * time.Second,
	}
	if wrap != nil {
		rt = wrap(rt)
	}
	return &http.Client{Transport: rt}
}

func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// setup builds the pipeline: shard pool and listeners, gateway and its
// telemetry, model training and distribution, and stream synthesis.
// This is exactly the work setup_s times.
func setup(w workload, seed uint64, dir string, opt setupOptions) (p *pipeline, err error) {
	p = &pipeline{w: w, b: building.PaperHouse(), dir: dir, tr: opt.tr}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	if w.durable {
		p.pool, err = fleet.NewDurableLocalPool(p.b, shards, debounce, retention, dir, store.FsyncBatch)
	} else {
		p.pool, err = fleet.NewLocalPool(p.b, shards, debounce, retention)
	}
	if err != nil {
		return p, err
	}
	p.closers = append(p.closers, func() { _ = p.pool.Close() })

	gwShards := make([]fleet.Shard, shards)
	for i, srv := range p.pool.Servers {
		if w.face != faceBinaryHTTP {
			gwShards[i] = p.pool.Shards[i]
			continue
		}
		h := srv.Handler()
		if p.tr != nil {
			h = p.tr.tracedHandler(h, kBMSHandler, int8(i))
		}
		base, closeSrv, err := serve(h)
		if err != nil {
			return p, err
		}
		p.closers = append(p.closers, closeSrv)
		var wrap func(http.RoundTripper) http.RoundTripper
		if p.tr != nil {
			i := int8(i)
			wrap = func(next http.RoundTripper) http.RoundTripper { return &shardRT{t: p.tr, shard: i, next: next} }
		}
		client := newClient(wrap)
		p.clients = append(p.clients, client)
		hs, err := fleet.NewHTTPShard(base, client, transport.DefaultRetry())
		if err != nil {
			return p, err
		}
		hs.SetCodec(transport.CodecBinary)
		gwShards[i] = hs
	}
	for i := range gwShards {
		if p.tr != nil {
			gwShards[i] = &tracedShard{Shard: gwShards[i], t: p.tr, shard: int8(i)}
		}
		if opt.wrapShard != nil {
			gwShards[i] = opt.wrapShard(i, gwShards[i])
		}
	}
	if p.gw, err = fleet.New(gwShards, fleet.Config{}); err != nil {
		return p, err
	}
	// One process-wide registry, attached as bmsd attaches it.
	p.met = obs.New()
	transport.Instrument(p.met)
	p.gw.Instrument(p.met)
	for _, srv := range p.pool.Servers {
		srv.Instrument(p.met)
	}

	if p.snap, err = trainModel(p.b); err != nil {
		return p, err
	}
	if err = p.gw.DistributeModel(p.snap); err != nil {
		return p, err
	}

	var h http.Handler = fleet.Handler(p.gw, fleet.HandlerOptions{})
	if p.tr != nil {
		h = p.tr.tracedHandler(h, kFleetHandler, -1)
	}
	base, closeGW, err := serve(h)
	if err != nil {
		return p, err
	}
	p.gwURL = base
	p.closers = append(p.closers, closeGW)

	p.streams = synthStreams(p.b, w, seed)
	return p, nil
}

// trainModel fits the crowd scene model on a scratch trainer and
// returns its snapshot — what every shard, the reference server and
// the classifier replay run. The model is the deployment's calibration,
// not part of the traffic, so its seed is fixed: a workload seed varies
// the report streams only, and the classifier's cost stays the same
// across seeds.
func trainModel(b *building.Building) (bms.ModelSnapshot, error) {
	st, err := store.New(retention)
	if err != nil {
		return bms.ModelSnapshot{}, err
	}
	trainer, err := bms.NewServer(b, st, debounce)
	if err != nil {
		return bms.ModelSnapshot{}, err
	}
	if err := experiments.TrainCrowdModel(trainer, b, modelSeed); err != nil {
		return bms.ModelSnapshot{}, err
	}
	snap, ok := trainer.ModelSnapshot()
	if !ok {
		return bms.ModelSnapshot{}, fmt.Errorf("trainer produced no model snapshot")
	}
	return snap, nil
}

// synthStreams synthesizes each device's template stream and shares
// one copy of each beacon identity string across all reports, so the
// templates cost the benchmark's memory once per beacon rather than
// once per report.
func synthStreams(b *building.Building, w workload, seed uint64) [][]transport.Report {
	streams, _, _ := experiments.SynthCrowdStreams(b, w.devices, w.templateLen, seed)
	ids := map[string]string{}
	for _, s := range streams {
		for i := range s {
			for j := range s[i].Beacons {
				id := s[i].Beacons[j].ID
				if c, ok := ids[id]; ok {
					s[i].Beacons[j].ID = c
				} else {
					ids[id] = id
				}
			}
		}
	}
	return streams
}

// newSender returns the upload call one sender goroutine makes per batch.
func (p *pipeline) newSender(wk *worker) func([]transport.Report) error {
	switch p.w.face {
	case faceInproc:
		return func(batch []transport.Report) error {
			_, err := p.gw.IngestBatch(batch)
			return err
		}
	case faceBinaryHTTP:
		up := &transport.ShardSplitter{BaseURL: p.gwURL, Client: p.deviceClient(wk), Retry: transport.DefaultRetry()}
		return up.SendBatch
	default:
		up := &transport.HTTPUplink{BaseURL: p.gwURL, Client: p.deviceClient(wk), Retry: transport.DefaultRetry(), Codec: transport.CodecJSON}
		return up.SendBatch
	}
}

func (p *pipeline) deviceClient(wk *worker) *http.Client {
	var wrap func(http.RoundTripper) http.RoundTripper
	if p.tr != nil {
		wrap = func(next http.RoundTripper) http.RoundTripper { return &deviceRT{t: p.tr, w: wk, next: next} }
	}
	c := newClient(wrap)
	p.clients = append(p.clients, c)
	return c
}

// close stops listeners, drains the pool (a durable pool compacts) and
// removes the WAL directory.
func (p *pipeline) close() {
	for _, c := range p.clients {
		c.CloseIdleConnections()
	}
	for i := len(p.closers) - 1; i >= 0; i-- {
		p.closers[i]()
	}
	p.closers, p.clients = nil, nil
	if p.dir != "" {
		_ = os.RemoveAll(p.dir)
	}
}

// quiesce waits out any background WAL compaction by compacting every
// durable shard once more (compactions are serialised), so a heap
// measurement does not catch a snapshot half written.
func (p *pipeline) quiesce() error {
	if !p.w.durable {
		return nil
	}
	for _, srv := range p.pool.Servers {
		if err := srv.CompactWAL(); err != nil {
			return err
		}
	}
	return nil
}

// walBytes sums the shards' WAL sizes (frame bytes since the last
// compaction).
func (p *pipeline) walBytes() int64 {
	var n int64
	for _, srv := range p.pool.Servers {
		n += srv.WALSize()
	}
	return n
}

func walDir(root string, i int) string { return filepath.Join(root, fmt.Sprintf("wal-%d", i)) }
