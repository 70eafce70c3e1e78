package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"occusim/internal/bms"
	"occusim/internal/store"
	"occusim/internal/transport"
)

// checkGate is the exactly-once contract: the fleet's federated
// Occupancy, Events and DwellTotals must be byte-identical to those of
// one reference bms.Server that received each device's delivered
// stream exactly once, under the same model. feed may tamper with what
// the reference receives (tests prove the gate notices); nil feeds
// the streams as generated.
func checkGate(p *pipeline, g *generator, feed func(d int, reports []transport.Report) []transport.Report) error {
	st, err := store.New(retention)
	if err != nil {
		return err
	}
	ref, err := bms.NewServer(p.b, st, debounce)
	if err != nil {
		return err
	}
	if _, err := ref.InstallModel(p.snap); err != nil {
		return err
	}
	// Each feeder owns whole devices, so every device's stream reaches
	// the reference in order; the reference's merged views do not
	// depend on how devices interleave.
	feeders := runtime.GOMAXPROCS(0)
	errs := make([]error, feeders)
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[f] = feedReference(ref, g, f, feeders, feed)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	occ, err := p.gw.Occupancy()
	if err != nil {
		return fmt.Errorf("gate: federated occupancy: %w", err)
	}
	if err := sameJSON("occupancy", occ, ref.Occupancy()); err != nil {
		return err
	}
	ev, err := p.gw.Events()
	if err != nil {
		return fmt.Errorf("gate: federated events: %w", err)
	}
	if err := sameJSON("events", ev, ref.Events()); err != nil {
		return err
	}
	dw, err := p.gw.DwellTotals()
	if err != nil {
		return fmt.Errorf("gate: federated dwell: %w", err)
	}
	return sameJSON("dwell totals", dw, ref.DwellTotals())
}

// feedReference ingests the streams of devices f, f+n, f+2n, ….
func feedReference(ref *bms.Server, g *generator, f, n int, feed func(d int, reports []transport.Report) []transport.Report) error {
	const chunk = 200
	buf := make([]transport.Report, 0, chunk)
	for d := f; d < len(g.sent); d += n {
		for k := 0; k < g.sent[d]; k += chunk {
			buf = buf[:0]
			for i := k; i < k+chunk && i < g.sent[d]; i++ {
				r := g.at(d, i)
				r.Epoch, r.Seq = 1, uint64(i+1)
				buf = append(buf, r)
			}
			batch := buf
			if feed != nil {
				batch = feed(d, batch)
			}
			if _, err := ref.IngestBatch(batch); err != nil {
				return fmt.Errorf("gate: reference ingest: %w", err)
			}
		}
	}
	return nil
}

func sameJSON(what string, fleet, ref any) error {
	a, err := json.Marshal(fleet)
	if err != nil {
		return err
	}
	b, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("gate: federated %s differ from the reference server (%d vs %d bytes)", what, len(a), len(b))
	}
	return nil
}
