package bms

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"occusim/internal/ibeacon"
	"occusim/internal/wire"
)

// FuzzObsRecord throws arbitrary bytes at the observation record
// decoder. The WAL frame checksum already screens disk corruption, so
// everything reaching this decoder claims to be a record — the decoder
// must still never panic, never allocate from a hostile count or
// length, and anything it accepts must be a fixed point of the codec:
// re-encoding the decoded record and decoding again yields
// byte-identical canonical bytes.
func FuzzObsRecord(f *testing.F) {
	id := ibeacon.BeaconID{UUID: ibeacon.MustUUID("B9407F30-F5F8-466E-AFF9-25556B57FE6D"), Major: 7, Minor: 1024}
	wb := new(wire.Batch)
	wb.AddReport("phone-01", 90, 3, 12)
	wb.AddBeacon(wire.Beacon{ID: id, Distance: 1.25, RSSI: -62})
	wb.AddBeacon(wire.Beacon{ID: id, Distance: math.Inf(1), RSSI: math.NaN()})
	wb.AddReport("téléphone-→", 0, 0, 0)
	real := appendObsRecord(nil, wb, 0, wb.Len(), []string{"kitchen", ""})
	f.Add(real)
	f.Add(appendObsRecord(nil, wb, 0, 0, nil))
	f.Add(real[:len(real)/2])
	f.Add([]byte{obsTag})
	// A room length of 2^62 after a valid one-report payload: the bound
	// must be checked before the slice arithmetic, which would wrap.
	hugeRoom := appendObsRecord(nil, wb, 1, 2, []string{"kitchen", ""})
	hugeRoom = binary.AppendUvarint(hugeRoom[:len(hugeRoom)-1], 1<<62)
	f.Add(hugeRoom)
	// A payload declaring 2^32-1 reports, which would size the rooms.
	f.Add([]byte{obsTag, 4, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	// A payload declaring 2^62 beacons for its one report.
	hugeBeacons := []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0} // 1 report, empty fields
	hugeBeacons = binary.AppendUvarint(hugeBeacons, 1<<62)
	rec := binary.LittleEndian.AppendUint32([]byte{obsTag}, uint32(len(hugeBeacons)))
	f.Add(append(rec, hugeBeacons...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// The replay dispatcher only routes tagged payloads here.
		data[0] = obsTag
		var b wire.Batch
		rooms, err := decodeObsRecord(data, &b)
		if err != nil {
			return
		}
		if len(rooms) != b.Len() {
			t.Fatalf("decoded %d reports but %d rooms", b.Len(), len(rooms))
		}
		canon := appendObsRecord(nil, &b, 0, b.Len(), rooms)
		var b2 wire.Batch
		rooms2, err := decodeObsRecord(canon, &b2)
		if err != nil {
			t.Fatalf("re-decoding the canonical encoding: %v", err)
		}
		if again := appendObsRecord(nil, &b2, 0, b2.Len(), rooms2); !bytes.Equal(canon, again) {
			t.Fatalf("codec is not a fixed point:\n canon: %x\n again: %x", canon, again)
		}
	})
}
