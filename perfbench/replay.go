package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"occusim/internal/classify"
	"occusim/internal/fingerprint"
	"occusim/internal/ibeacon"
	"occusim/internal/occupancy"
	"occusim/internal/ring"
	"occusim/internal/store"
	"occusim/internal/svm"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// replayResult is the cost of the layers hidden inside bms and the
// codec, each replayed in isolation over the workload's own captured
// batches through the layer's public functions.
type replayResult struct {
	PredictNs, PredictAllocs        float64 // classify.SceneSVM.Predict, per report
	AddBatchNsPerReport             float64 // store.Store.AddObservationBatch
	ObserveNsPerReport              float64 // occupancy.Sharded.ObserveBatch
	EncodeNsPerReport               float64 // wire.AppendFrame
	DecodeNsPerReport, DecodeAllocs float64 // wire.DecodeFrame (allocs per frame)
	OwnerNs                         float64 // ring.Ring.Owner
}

// measure runs pass until budget is spent and returns ns per unit and
// heap allocations per call; pass reports the units it processed, the
// calls it made and the time spent in the measured calls.
func measure(budget time.Duration, pass func() (units, calls int, spent time.Duration)) (nsPerUnit, allocsPerCall float64) {
	var units, calls int
	var spent time.Duration
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for deadline := time.Now().Add(budget); time.Now().Before(deadline) || units == 0; {
		u, c, s := pass()
		units, calls, spent = units+u, calls+c, spent+s
	}
	runtime.ReadMemStats(&m1)
	return div(float64(spent), float64(units)), div(float64(m1.Mallocs-m0.Mallocs), float64(calls))
}

// replay measures each hidden layer for budget/5.
func replay(p *pipeline, batches [][]transport.Report, budget time.Duration) (replayResult, error) {
	var res replayResult
	if len(batches) == 0 {
		return res, fmt.Errorf("replay: no captured batches")
	}
	each := budget / 5

	// classify: the model rebuilt from the distributed snapshot.
	beacons := make([]ibeacon.BeaconID, 0, len(p.snap.Beacons))
	for _, raw := range p.snap.Beacons {
		id, err := ibeacon.ParseBeaconID(raw)
		if err != nil {
			return res, err
		}
		beacons = append(beacons, id)
	}
	model := new(svm.Model)
	if err := json.Unmarshal(p.snap.Model, model); err != nil {
		return res, err
	}
	scene := classify.NewSceneSVM(beacons, model)

	var samples []fingerprint.Sample
	var obsBatches [][]store.Observation
	var clsBatches [][]occupancy.Classification
	var wireBatches []*wire.Batch
	var frames [][]byte
	for _, batch := range batches {
		ob := make([]store.Observation, len(batch))
		cb := make([]occupancy.Classification, len(batch))
		for i, r := range batch {
			at := time.Duration(r.AtSeconds * float64(time.Second))
			s := fingerprint.Sample{At: at, Distances: map[ibeacon.BeaconID]float64{}}
			ob[i] = store.Observation{Device: r.Device, At: at, Epoch: r.Epoch, Seq: r.Seq}
			for _, bc := range r.Beacons {
				id, err := ibeacon.ParseBeaconID(bc.ID)
				if err != nil {
					return res, err
				}
				s.Distances[id] = bc.Distance
				ob[i].Beacons = append(ob[i].Beacons, store.BeaconDistance{ID: id, Distance: bc.Distance, RSSI: bc.RSSI})
			}
			samples = append(samples, s)
			cb[i] = occupancy.Classification{At: at, Device: r.Device, Room: scene.Predict(s)}
		}
		obsBatches, clsBatches = append(obsBatches, ob), append(clsBatches, cb)
		wb := wire.GetBatch()
		if err := transport.EncodeReports(wb, batch); err != nil {
			return res, err
		}
		wireBatches = append(wireBatches, wb)
		frames = append(frames, wire.AppendFrame(nil, wb))
	}

	res.PredictNs, res.PredictAllocs = measure(each, func() (int, int, time.Duration) {
		t := time.Now()
		for _, s := range samples {
			sink = scene.Predict(s)
		}
		return len(samples), len(samples), time.Since(t)
	})

	// store: each pass lands under a higher device epoch, so every
	// observation is fresh, as on the live path.
	st, err := store.New(retention)
	if err != nil {
		return res, err
	}
	epoch := uint64(1)
	var serr error
	res.AddBatchNsPerReport, _ = measure(each, func() (int, int, time.Duration) {
		epoch++
		for _, ob := range obsBatches {
			for i := range ob {
				ob[i].Epoch = epoch
			}
		}
		n := 0
		t := time.Now()
		for _, ob := range obsBatches {
			if _, err := st.AddObservationBatch(ob); err != nil {
				serr = err
			}
			n += len(ob)
		}
		return n, len(obsBatches), time.Since(t)
	})
	if serr != nil {
		return res, fmt.Errorf("replay: store: %w", serr)
	}

	// occupancy: each pass moves the clock past the previous one, so
	// every device's timeline stays nondecreasing.
	tracker, err := occupancy.NewSharded(debounce)
	if err != nil {
		return res, err
	}
	lap := time.Duration(len(batches)) * time.Hour
	res.ObserveNsPerReport, _ = measure(each, func() (int, int, time.Duration) {
		n := 0
		for _, cb := range clsBatches {
			for i := range cb {
				cb[i].At += lap
			}
			n += len(cb)
		}
		t := time.Now()
		for _, cb := range clsBatches {
			tracker.ObserveBatch(cb)
		}
		return n, len(clsBatches), time.Since(t)
	})

	reports := len(samples)
	var buf []byte
	res.EncodeNsPerReport, _ = measure(each, func() (int, int, time.Duration) {
		t := time.Now()
		for _, wb := range wireBatches {
			buf = wire.AppendFrame(buf[:0], wb)
		}
		return reports, len(wireBatches), time.Since(t)
	})
	into := wire.GetBatch()
	var derr error
	res.DecodeNsPerReport, res.DecodeAllocs = measure(each, func() (int, int, time.Duration) {
		t := time.Now()
		for _, f := range frames {
			if err := wire.DecodeFrame(f, into); err != nil {
				derr = err
			}
		}
		return reports, len(frames), time.Since(t)
	})
	if derr != nil {
		return res, fmt.Errorf("replay: decode: %w", derr)
	}

	info := p.gw.RingInfo()
	rg, err := ring.New(info.Shards, info.Replicas)
	if err != nil {
		return res, err
	}
	res.OwnerNs, _ = measure(each, func() (int, int, time.Duration) {
		t := time.Now()
		for _, s := range clsBatches {
			for _, c := range s {
				ownerSink, _ = rg.Owner(c.Device, nil)
			}
		}
		return reports, reports, time.Since(t)
	})
	return res, nil
}

// Sinks keep the compiler from dropping measured calls.
var (
	sink      string
	ownerSink int
)
