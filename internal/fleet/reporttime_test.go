package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/obs"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// TestGatewayRejectsMalformedReportTimes pins the gateway half of the
// report-time check. Under a ResidueTTL, one report at 1e300 s used to
// drag the sweep's high-water mark past every live device, and the next
// federated read swept them all. Every gateway face must now reject the
// whole batch before routing, store nothing, and leave occupancy intact
// through the next read.
func TestGatewayRejectsMalformedReportTimes(t *testing.T) {
	b := building.PaperHouse()
	pool, err := fleet.NewLocalPool(b, 3, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := fleet.New(pool.Shards, fleet.Config{ResidueTTL: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	met := obs.New()
	gw.Instrument(met)
	if err := gw.DistributeModel(trainSnapshot(t, b, 42)); err != nil {
		t.Fatal(err)
	}
	stream := synthStream(b, 6, 5, 1)
	stampStream(stream, 1)
	if _, err := gw.IngestBatch(stream); err != nil {
		t.Fatal(err)
	}
	occ, err := gw.Occupancy()
	if err != nil || len(occ.Devices) != 6 {
		t.Fatalf("setup: occupancy %+v, %v", occ, err)
	}
	want := mustJSON(t, occ)
	ts := httptest.NewServer(fleet.Handler(gw, fleet.HandlerOptions{}))
	defer ts.Close()

	post := func(path, contentType string, body []byte) error {
		resp, err := http.Post(ts.URL+path, contentType, bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return nil
		case http.StatusBadRequest:
			return fmt.Errorf("%s: HTTP 400", path)
		}
		t.Fatalf("%s: HTTP %d, want 400", path, resp.StatusCode)
		return nil
	}
	jsonOf := func(v any) []byte {
		blob, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	faces := []struct {
		name string
		json bool
		send func(batch []transport.Report) error
	}{
		{"json-single", true, func(batch []transport.Report) error {
			return post("/api/v1/observations", "application/json", jsonOf(batch[len(batch)-1]))
		}},
		{"json-batch", true, func(batch []transport.Report) error {
			return post("/api/v1/observations:batch", "application/json", jsonOf(batch))
		}},
		{"binary", false, func(batch []transport.Report) error {
			wb := new(wire.Batch)
			if err := transport.EncodeReports(wb, batch); err != nil {
				t.Fatal(err)
			}
			return post("/api/v1/observations:batch", wire.ContentType, wire.AppendFrame(nil, wb))
		}},
		{"pre-split", false, func(batch []transport.Report) error {
			up := &transport.ShardSplitter{BaseURL: ts.URL, Refresh: time.Hour}
			return up.SendBatch(batch)
		}},
		{"in-process", false, func(batch []transport.Report) error {
			_, err := gw.IngestBatch(batch)
			return err
		}},
	}
	for _, f := range faces {
		for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 9.3e9} {
			if f.json && (math.IsNaN(at) || math.IsInf(at, 0)) {
				continue
			}
			good := transport.Report{Device: "newcomer", AtSeconds: 9, Beacons: stream[0].Beacons}
			bad := transport.Report{Device: "rogue", AtSeconds: at, Beacons: stream[0].Beacons}
			if err := f.send([]transport.Report{good, bad}); err == nil {
				t.Fatalf("%s: report at %g s accepted", f.name, at)
			} else if code, ok := transport.StatusCode(err); ok && code != http.StatusBadRequest {
				t.Fatalf("%s: report at %g s answered %d, want 400", f.name, at, code)
			}
			for i, srv := range pool.Servers {
				for _, d := range srv.KnownDevices() {
					if d == good.Device || d == bad.Device {
						t.Fatalf("%s at %g s: shard %d stored %s", f.name, at, i, d)
					}
				}
			}
			occ, err := gw.Occupancy()
			if err != nil {
				t.Fatal(err)
			}
			if got := mustJSON(t, occ); !bytes.Equal(got, want) {
				t.Fatalf("%s at %g s: occupancy after the next read\n got %s\nwant %s", f.name, at, got, want)
			}
		}
	}
	if miss := met.TakeSnapshot().Counters["fleet_presplit_digest_miss_total"]; miss != 0 {
		t.Fatalf("pre-split uploads fell back to re-split %v times; the check must run on the forward path", miss)
	}
}
