package bms

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"occusim/internal/building"
	"occusim/internal/rng"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// serve runs one request through the server's REST face.
func serve(t *testing.T, s *Server, path, contentType string, body []byte) ([]byte, error) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), nil
}

func decodeRoomsBody(t *testing.T, body []byte) []string {
	t.Helper()
	var out struct {
		Room  string   `json:"room"`
		Rooms []string `json:"rooms"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Rooms == nil {
		return []string{out.Room}
	}
	return out.Rooms
}

// faces lists every ingest face a server has. send returns the
// predicted rooms, or an error carrying the HTTP status on HTTP faces.
var faces = []struct {
	name   string
	json   bool // the face speaks JSON, which cannot carry NaN or ±Inf
	single bool // the face takes one report per call
	send   func(t *testing.T, s *Server, reports []transport.Report) ([]string, error)
}{
	{"json-single", true, true, func(t *testing.T, s *Server, reports []transport.Report) ([]string, error) {
		var rooms []string
		for _, r := range reports {
			body, err := serve(t, s, "/api/v1/observations", "application/json", mustJSON(t, r))
			if err != nil {
				return nil, err
			}
			rooms = append(rooms, decodeRoomsBody(t, body)...)
		}
		return rooms, nil
	}},
	{"json-batch", true, false, func(t *testing.T, s *Server, reports []transport.Report) ([]string, error) {
		body, err := serve(t, s, "/api/v1/observations:batch", "application/json", mustJSON(t, reports))
		if err != nil {
			return nil, err
		}
		return decodeRoomsBody(t, body), nil
	}},
	{"binary", false, false, func(t *testing.T, s *Server, reports []transport.Report) ([]string, error) {
		b := new(wire.Batch)
		if err := transport.EncodeReports(b, reports); err != nil {
			t.Fatal(err)
		}
		body, err := serve(t, s, "/api/v1/observations:batch", wire.ContentType, wire.AppendFrame(nil, b))
		if err != nil {
			return nil, err
		}
		return decodeRoomsBody(t, body), nil
	}},
	{"in-process", false, false, func(t *testing.T, s *Server, reports []transport.Report) ([]string, error) {
		return s.IngestBatch(reports)
	}},
}

// TestMalformedReportTimesRejected pins the report-time check: a time
// time.Duration cannot hold (NaN, ±Inf, beyond ±292 years) is malformed
// on every face. The whole batch is rejected — its well-formed report
// included — nothing is stored, and occupancy is untouched.
func TestMalformedReportTimesRejected(t *testing.T) {
	for _, f := range faces {
		for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 9.3e9} {
			if f.json && (math.IsNaN(at) || math.IsInf(at, 0)) {
				continue
			}
			t.Run(fmt.Sprintf("%s/%g", f.name, at), func(t *testing.T) {
				s, b := newTestServer(t)
				if _, err := s.IngestBatch([]transport.Report{reportNear(b, "resident", 0, 1)}); err != nil {
					t.Fatal(err)
				}
				want := mustJSON(t, s.Occupancy())
				batch := []transport.Report{reportNear(b, "good", 1, 2), reportNear(b, "bad", 2, at)}
				if f.single {
					batch = batch[1:]
				}
				if rooms, err := f.send(t, s, batch); err == nil {
					t.Fatalf("report at %g s accepted, rooms %v", at, rooms)
				}
				for _, dev := range []string{"good", "bad"} {
					if o, ok := s.st.Latest(dev); ok {
						t.Errorf("%s stored at %v", dev, o.At)
					}
				}
				if got := mustJSON(t, s.Occupancy()); !bytes.Equal(got, want) {
					t.Fatalf("occupancy changed: %s, want %s", got, want)
				}
			})
		}
	}
}

// TestEveryFaceLogsSameBytes feeds one seeded stream through each face
// of its own durable server. Rooms, occupancy, events and dwell must
// agree, and the WAL files must be byte-identical: every face reaches
// one apply, which logs one record form.
//
// The single face logs one record per report, while batch faces log
// one per same-stripe run. Every device here owns its own stripe, so
// no run is longer than one report and the two groupings coincide.
func TestEveryFaceLogsSameBytes(t *testing.T) {
	var devices []string
	taken := map[int]bool{}
	for i := 0; len(devices) < 8; i++ {
		d := fmt.Sprintf("phone-%d", i)
		if idx := store.StripeFor(d); !taken[idx] {
			taken[idx] = true
			devices = append(devices, d)
		}
	}
	bld := building.PaperHouse()
	var batches [][]transport.Report
	src := rng.New(5)
	seq := map[string]uint64{}
	near := map[string]int{}
	for step := 0; step < 30; step++ {
		var batch []transport.Report
		for i, d := range devices {
			if src.Intn(3) == 0 {
				continue // this device sits the step out
			}
			if src.Intn(4) == 0 {
				near[d] = src.Intn(len(bld.Beacons))
			}
			seq[d]++
			r := reportNear(bld, d, near[d], float64(step)+float64(i)/10)
			r.Epoch, r.Seq = 1, seq[d]
			batch = append(batch, r)
		}
		batches = append(batches, batch)
		if step%7 == 3 {
			batches = append(batches, batch) // a lost ack: the retransmission dedups
		}
	}

	type result struct {
		rooms []string
		views string
		logs  map[string][]byte
	}
	var results []result
	for _, f := range faces {
		dir := t.TempDir()
		s, b := openDurable(t, dir, store.FsyncOff)
		trainServer(t, s, b)
		var rooms []string
		for _, batch := range batches {
			got, err := f.send(t, s, batch)
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			rooms = append(rooms, got...)
		}
		logs := map[string][]byte{}
		names, err := filepath.Glob(filepath.Join(dir, "*.wal"))
		if err != nil || len(names) == 0 {
			t.Fatalf("%s: no logs (%v)", f.name, err)
		}
		for _, name := range names {
			if logs[filepath.Base(name)], err = os.ReadFile(name); err != nil {
				t.Fatal(err)
			}
		}
		results = append(results, result{rooms, viewsJSON(t, s), logs})
	}
	ref := results[0]
	if n := len(ref.rooms); n < 100 {
		t.Fatalf("setup: only %d reports ingested", n)
	}
	for i, r := range results[1:] {
		name := faces[i+1].name
		if !slices.Equal(r.rooms, ref.rooms) {
			t.Errorf("%s: rooms differ from %s", name, faces[0].name)
		}
		if r.views != ref.views {
			t.Errorf("%s: views differ:\n%s\nvs %s:\n%s", name, r.views, faces[0].name, ref.views)
		}
		for file, want := range ref.logs {
			if !bytes.Equal(r.logs[file], want) {
				t.Errorf("%s: %s differs from %s (%d vs %d bytes)", name, file, faces[0].name, len(r.logs[file]), len(want))
			}
		}
	}
}
