package store

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"occusim/internal/fingerprint"
	"occusim/internal/ibeacon"
)

var (
	idA = ibeacon.BeaconID{UUID: ibeacon.MustUUID("C0FFEE00-BEEF-4A11-8000-000000000001"), Major: 1, Minor: 1}
	idB = ibeacon.BeaconID{UUID: ibeacon.MustUUID("C0FFEE00-BEEF-4A11-8000-000000000001"), Major: 1, Minor: 2}
)

func mkObs(device string, at time.Duration, ids ...ibeacon.BeaconID) Observation {
	o := Observation{Device: device, At: at}
	for _, id := range ids {
		o.Beacons = append(o.Beacons, BeaconDistance{ID: id, Distance: 2, RSSI: -65})
	}
	return o
}

// addObs stores one observation as a batch of one and reports
// whether it was fresh.
func addObs(s *Store, o Observation) (bool, error) {
	fresh, err := s.AddObservationBatch([]Observation{o})
	if err != nil {
		return false, err
	}
	return fresh[0], nil
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("zero retention should fail")
	}
}

func TestAddAndLatest(t *testing.T) {
	s, _ := New(10)
	if _, err := addObs(s, mkObs("p", time.Second, idA)); err != nil {
		t.Fatal(err)
	}
	if _, err := addObs(s, mkObs("p", 2*time.Second, idB)); err != nil {
		t.Fatal(err)
	}
	latest, ok := s.Latest("p")
	if !ok || latest.At != 2*time.Second {
		t.Fatalf("latest = %+v, %v", latest, ok)
	}
	if _, ok := s.Latest("ghost"); ok {
		t.Fatal("latest of unknown device")
	}
	if _, err := addObs(s, Observation{}); err == nil {
		t.Fatal("empty device should fail")
	}
}

func TestRetentionEvictsOldest(t *testing.T) {
	s, _ := New(3)
	for i := 1; i <= 5; i++ {
		_, _ = addObs(s, mkObs("p", time.Duration(i)*time.Second))
	}
	h := s.History("p")
	if len(h) != 3 {
		t.Fatalf("history = %d", len(h))
	}
	if h[0].At != 3*time.Second || h[2].At != 5*time.Second {
		t.Fatalf("kept wrong window: %v .. %v", h[0].At, h[2].At)
	}
}

func TestDevices(t *testing.T) {
	s, _ := New(5)
	_, _ = addObs(s, mkObs("zed", time.Second))
	_, _ = addObs(s, mkObs("amy", time.Second))
	d := s.Devices()
	if len(d) != 2 || d[0] != "amy" || d[1] != "zed" {
		t.Fatalf("devices = %v", d)
	}
}

func TestFingerprints(t *testing.T) {
	s, _ := New(5)
	if err := s.AddFingerprint(fingerprint.Sample{Room: ""}); err == nil {
		t.Fatal("unlabelled fingerprint should fail")
	}
	_ = s.AddFingerprint(fingerprint.Sample{
		Room:      "kitchen",
		Distances: map[ibeacon.BeaconID]float64{idA: 2},
	})
	_ = s.AddFingerprint(fingerprint.Sample{
		Room:      "living",
		Distances: map[ibeacon.BeaconID]float64{idB: 3},
	})
	if s.FingerprintCount() != 2 {
		t.Fatalf("count = %d", s.FingerprintCount())
	}
	ds := s.FingerprintDataset()
	if ds.Len() != 2 {
		t.Fatalf("dataset len = %d", ds.Len())
	}
	if len(ds.Beacons) != 2 {
		t.Fatalf("dataset beacons = %v", ds.Beacons)
	}
}

func TestBeaconOrderIsFirstSeen(t *testing.T) {
	s, _ := New(5)
	_, _ = addObs(s, mkObs("p", time.Second, idB))
	_, _ = addObs(s, mkObs("p", 2*time.Second, idA, idB))
	bs := s.Beacons()
	if len(bs) != 2 || bs[0] != idB || bs[1] != idA {
		t.Fatalf("beacon order = %v", bs)
	}
}

func TestModelVersioning(t *testing.T) {
	s, _ := New(5)
	if blob, v := s.Model(); blob != nil || v != 0 {
		t.Fatal("fresh store should have no model")
	}
	v1 := s.SetModel([]byte("model-1"))
	v2 := s.SetModel([]byte("model-2"))
	if v1 != 1 || v2 != 2 {
		t.Fatalf("versions = %d, %d", v1, v2)
	}
	blob, v := s.Model()
	if string(blob) != "model-2" || v != 2 {
		t.Fatalf("model = %q v%d", blob, v)
	}
	// Stored blob is a copy.
	blob[0] = 'X'
	again, _ := s.Model()
	if string(again) != "model-2" {
		t.Fatal("model aliases caller memory")
	}
}

func TestPruneBefore(t *testing.T) {
	s, _ := New(10)
	for i := 1; i <= 5; i++ {
		_, _ = addObs(s, mkObs("p", time.Duration(i)*time.Second))
	}
	_, _ = addObs(s, mkObs("old", time.Second))
	removed := s.PruneBefore(3 * time.Second)
	if removed != 3 { // p@1s, p@2s, old@1s
		t.Fatalf("removed = %d", removed)
	}
	if len(s.History("p")) != 3 {
		t.Fatalf("p history = %d", len(s.History("p")))
	}
	if _, ok := s.Latest("old"); ok {
		t.Fatal("old device should be gone")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := New(100)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dev := string(rune('a' + g))
			for i := 0; i < 100; i++ {
				_, _ = addObs(s, mkObs(dev, time.Duration(i)*time.Millisecond, idA))
				s.Latest(dev)
				s.Devices()
				s.FingerprintDataset()
			}
		}(g)
	}
	wg.Wait()
	if len(s.Devices()) != 8 {
		t.Fatalf("devices = %d", len(s.Devices()))
	}
}

// Property: history length never exceeds the retention bound.
func TestQuickRetentionBound(t *testing.T) {
	f := func(n uint8, cap uint8) bool {
		c := int(cap%20) + 1
		s, err := New(c)
		if err != nil {
			return false
		}
		for i := 0; i < int(n); i++ {
			_, _ = addObs(s, mkObs("p", time.Duration(i)*time.Second))
		}
		return len(s.History("p")) <= c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInstallModelVersionMonotonic pins the distributed-install
// contract: stale and duplicate snapshot versions are ignored (retries
// are idempotent, out-of-order distributions converge on the newest
// model), newer versions land, and non-positive versions fall back to
// the local counter.
func TestInstallModelVersionMonotonic(t *testing.T) {
	s, err := New(10)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.InstallModel([]byte(`{"m":1}`), 3); !ok || v != 3 {
		t.Fatalf("fresh install = (%d, %v), want (3, true)", v, ok)
	}
	if v, ok := s.InstallModel([]byte(`{"m":2}`), 3); ok || v != 3 {
		t.Fatalf("duplicate version install = (%d, %v), want (3, false)", v, ok)
	}
	if v, ok := s.InstallModel([]byte(`{"m":2}`), 2); ok || v != 3 {
		t.Fatalf("stale version install = (%d, %v), want (3, false)", v, ok)
	}
	blob, version := s.Model()
	if string(blob) != `{"m":1}` || version != 3 {
		t.Fatalf("model after stale installs = (%s, %d), want the v3 blob", blob, version)
	}
	if v, ok := s.InstallModel([]byte(`{"m":9}`), 5); !ok || v != 5 {
		t.Fatalf("newer install = (%d, %v), want (5, true)", v, ok)
	}
	if v, ok := s.InstallModel([]byte(`{"m":10}`), 0); !ok || v != 6 {
		t.Fatalf("unversioned install = (%d, %v), want (6, true)", v, ok)
	}
}
