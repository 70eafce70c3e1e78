package bms

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestEventsEndpoint(t *testing.T) {
	s, b := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := ingestOne(s, reportNear(b, "p", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ingestOne(s, reportNear(b, "p", 1, 5)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/api/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Events []struct {
			AtSeconds float64 `json:"atSeconds"`
			Device    string  `json:"device"`
			Kind      string  `json:"kind"`
			Room      string  `json:"room"`
		} `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Events) != 3 { // enter kitchen, exit kitchen, enter living
		t.Fatalf("events = %d", len(body.Events))
	}
	if body.Events[0].Kind != "enter" || body.Events[0].Room != "kitchen" {
		t.Fatalf("first event = %+v", body.Events[0])
	}
	if body.Events[2].Room != "living" {
		t.Fatalf("last event = %+v", body.Events[2])
	}
}

func TestRoomsEndpoint(t *testing.T) {
	s, b := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/v1/rooms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Building string `json:"building"`
		Rooms    []struct {
			Name    string `json:"name"`
			Beacons int    `json:"beacons"`
		} `json:"rooms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Building != b.Name {
		t.Fatalf("building = %q", body.Building)
	}
	if len(body.Rooms) != len(b.Rooms) {
		t.Fatalf("rooms = %d", len(body.Rooms))
	}
	for _, r := range body.Rooms {
		if r.Beacons != 1 {
			t.Fatalf("room %q beacons = %d, want 1", r.Name, r.Beacons)
		}
	}
}

func TestEnergyEndpoint(t *testing.T) {
	s, b := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// No history yet: 409.
	resp, _ := http.Get(ts.URL + "/api/v1/energy")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("no-history status = %s", resp.Status)
	}
	resp.Body.Close()

	// Build some occupancy: kitchen for an hour of simulated time.
	if _, err := ingestOne(s, reportNear(b, "p", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := ingestOne(s, reportNear(b, "p", 0, 3600)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/api/v1/energy?horizonSeconds=7200")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		HorizonSeconds float64 `json:"horizonSeconds"`
		BaselineKWh    float64 `json:"baselineKWh"`
		DemandKWh      float64 `json:"demandKWh"`
		SavingFraction float64 `json:"savingFraction"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.HorizonSeconds != 7200 {
		t.Fatalf("horizon = %v", body.HorizonSeconds)
	}
	if body.BaselineKWh <= body.DemandKWh || body.SavingFraction <= 0 {
		t.Fatalf("comparison = %+v", body)
	}

	// Bad horizon: 400.
	resp, _ = http.Get(ts.URL + "/api/v1/energy?horizonSeconds=-5")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad horizon status = %s", resp.Status)
	}
	resp.Body.Close()
}
