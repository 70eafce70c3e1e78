// Package wire is the binary wire protocol for device report batches —
// the length-prefixed, CRC-checked frame format devices, gateways and
// shards exchange instead of JSON on the hot ingest path.
//
// A frame is:
//
//	[0]    version byte (Version)
//	[1:5]  u32 LE payload length
//	[5:9]  u32 CRC32-C of the payload
//	[9:…]  payload
//
// The payload is one batch record — also the body of the bms WAL's
// observation record, so a report is logged in the bytes it arrived
// in: a u32 LE report count, then per report a uvarint-length device
// name, the 8 raw bits of the float64 report time (NaN/Inf-safe — no
// text round-trip), uvarint epoch and sequence stamps, a uvarint
// beacon count, and per beacon a fixed
// 36-byte record: 16-byte UUID, u16 LE major, u16 LE minor, and the
// raw float64 bits of distance and RSSI. Beacon identities travel as
// parsed binary, so the receiving side never re-parses the
// "UUID/major/minor" string form — the single biggest per-report
// allocation on the JSON path.
//
// Decode fills a struct-of-arrays Batch (PR 3 ble-stage style) whose
// slices are reused across frames via a sync.Pool; device names are
// interned per Batch so a steady-state decode of a chatty fleet
// allocates nothing.
//
// The frame scanner follows the WAL scanner's recovery contract: a
// stream is a valid prefix of whole frames, then either a torn tail
// (truncated mid-frame: not an error, the prefix stands) or corruption
// (bad version, oversized length, CRC mismatch: a loud error). HTTP
// faces additionally require the valid prefix to cover the whole body.
//
// Pre-split uploads concatenate sections, each a uvarint-length shard
// name followed by one frame, so a gateway whose ring digest matches
// the device's can forward each frame verbatim to its shard without
// decoding a single beacon.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"occusim/internal/ibeacon"
)

// Version is the frame format version this package speaks. A decoder
// rejects frames with any other version byte, which is how the format
// evolves: bump the byte, teach the decoder both.
const Version = 0x01

// ContentType negotiates the binary codec over HTTP. A server that
// does not speak it answers 415 and the client downgrades to JSON.
const ContentType = "application/x-occusim-wire"

// HeaderRingDigest carries the ring digest a device pre-split against
// (request) and the digest the gateway is currently routing with
// (response), so a stale splitter refreshes without an extra probe.
const HeaderRingDigest = "X-Ring-Digest"

// MaxFramePayload bounds one frame's payload (64 MiB): far above any
// real batch, low enough that a corrupt length prefix cannot drive an
// allocation.
const MaxFramePayload = 1 << 26

// frameHeaderLen is version + length + CRC.
const frameHeaderLen = 1 + 4 + 4

// beaconWire is the fixed per-beacon encoding: UUID + major + minor +
// distance bits + RSSI bits.
const beaconWire = 16 + 2 + 2 + 8 + 8

// minReportWire is the smallest possible per-report encoding (empty
// device name, zero stamps, no beacons); the count guard divides by it.
const minReportWire = 1 + 8 + 1 + 1 + 1

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrShortFrame marks a frame truncated mid-payload — a torn tail the
// scanner stops cleanly at, or a short HTTP body the ingest face 400s.
var ErrShortFrame = fmt.Errorf("wire: truncated frame")

// Beacon is one sighted beacon: parsed identity plus the estimated
// distance and filtered RSSI, exactly transport.BeaconReport with the
// identity in binary.
type Beacon struct {
	ID             ibeacon.BeaconID
	Distance, RSSI float64
}

// Batch is a decoded report batch in struct-of-arrays form: column i
// of each slice is report i, and ReportBeacons(i) is its beacon span
// in the shared Beacons backing array. Append with AddReport and
// AddBeacon; reuse across frames via Reset (or the package pool).
type Batch struct {
	Devices []string
	At      []float64 // report times, seconds on the building clock
	Epoch   []uint64
	Seq     []uint64
	Beacons []Beacon

	// beaconOff[i] is report i's first index into Beacons; report i's
	// span ends at beaconOff[i+1] (or len(Beacons) for the last).
	beaconOff []int32

	// intern maps decoded device names to their canonical string, so
	// steady-state decodes of a recurring device population allocate no
	// name strings. Bounded; survives Reset on purpose.
	intern map[string]string
}

// maxInterned bounds the per-Batch device-name intern table.
const maxInterned = 4096

// Len returns the report count.
func (b *Batch) Len() int { return len(b.Devices) }

// Reset empties the batch, keeping capacity and the intern table.
func (b *Batch) Reset() {
	b.Devices = b.Devices[:0]
	b.At = b.At[:0]
	b.Epoch = b.Epoch[:0]
	b.Seq = b.Seq[:0]
	b.Beacons = b.Beacons[:0]
	b.beaconOff = b.beaconOff[:0]
}

// AddReport appends a report column; its beacons follow via AddBeacon.
func (b *Batch) AddReport(device string, at float64, epoch, seq uint64) {
	b.Devices = append(b.Devices, device)
	b.At = append(b.At, at)
	b.Epoch = append(b.Epoch, epoch)
	b.Seq = append(b.Seq, seq)
	b.beaconOff = append(b.beaconOff, int32(len(b.Beacons)))
}

// AddBeacon appends one beacon to the most recently added report.
func (b *Batch) AddBeacon(bc Beacon) {
	b.Beacons = append(b.Beacons, bc)
}

// ReportBeacons returns report i's beacon span (a view into the shared
// backing array, valid until the next Reset).
func (b *Batch) ReportBeacons(i int) []Beacon {
	start := b.beaconOff[i]
	end := int32(len(b.Beacons))
	if i+1 < len(b.beaconOff) {
		end = b.beaconOff[i+1]
	}
	return b.Beacons[start:end]
}

// internDevice canonicalizes a decoded device name. The map lookup
// with a string conversion in the index expression is allocation-free
// on a hit; only genuinely new names (bounded by maxInterned) allocate.
func (b *Batch) internDevice(raw []byte) string {
	if s, ok := b.intern[string(raw)]; ok {
		return s
	}
	s := string(raw)
	if b.intern == nil {
		b.intern = make(map[string]string, 64)
	}
	if len(b.intern) < maxInterned {
		b.intern[s] = s
	}
	return s
}

// AppendPayload appends the batch record (no frame header) of reports
// [from, to) to dst; (0, b.Len()) encodes the whole batch.
func AppendPayload(dst []byte, b *Batch, from, to int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(to-from))
	for i := from; i < to; i++ {
		dev := b.Devices[i]
		dst = binary.AppendUvarint(dst, uint64(len(dev)))
		dst = append(dst, dev...)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.At[i]))
		dst = binary.AppendUvarint(dst, b.Epoch[i])
		dst = binary.AppendUvarint(dst, b.Seq[i])
		span := b.ReportBeacons(i)
		dst = binary.AppendUvarint(dst, uint64(len(span)))
		for _, bc := range span {
			dst = append(dst, bc.ID.UUID[:]...)
			dst = binary.LittleEndian.AppendUint16(dst, bc.ID.Major)
			dst = binary.LittleEndian.AppendUint16(dst, bc.ID.Minor)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(bc.Distance))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(bc.RSSI))
		}
	}
	return dst
}

// AppendFrame appends one complete frame (header + batch payload).
func AppendFrame(dst []byte, b *Batch) []byte {
	head := len(dst)
	dst = append(dst, Version, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = AppendPayload(dst, b, 0, b.Len())
	payload := dst[head+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[head+1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[head+5:], crc32.Checksum(payload, crcTable))
	return dst
}

// frameAt validates the frame starting data[0] and returns its payload
// and total size. A truncated frame returns ErrShortFrame; a corrupt
// one (wrong version, oversized length, CRC mismatch) a loud error.
func frameAt(data []byte) (payload []byte, size int, err error) {
	if len(data) < frameHeaderLen {
		return nil, 0, ErrShortFrame
	}
	if data[0] != Version {
		return nil, 0, fmt.Errorf("wire: unknown frame version 0x%02x", data[0])
	}
	n := binary.LittleEndian.Uint32(data[1:5])
	if n > MaxFramePayload {
		return nil, 0, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, MaxFramePayload)
	}
	size = frameHeaderLen + int(n)
	if len(data) < size {
		return nil, 0, ErrShortFrame
	}
	payload = data[frameHeaderLen:size]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(data[5:9]); got != want {
		return nil, 0, fmt.Errorf("wire: frame checksum mismatch (got %08x want %08x)", got, want)
	}
	return payload, size, nil
}

// Scan walks a stream of concatenated frames, calling fn with each
// validated payload, and returns the length of the valid prefix. The
// contract mirrors the WAL scanner's: a torn final frame (the stream
// ends mid-frame) is not an error — valid stops before it; corruption
// inside the stream (bad version, oversized length, checksum mismatch)
// is an error with valid marking the last good boundary. fn errors
// abort the scan and are returned verbatim.
func Scan(data []byte, fn func(payload []byte) error) (valid int, err error) {
	for valid < len(data) {
		payload, size, err := frameAt(data[valid:])
		if err == ErrShortFrame {
			return valid, nil
		}
		if err != nil {
			return valid, err
		}
		if err := fn(payload); err != nil {
			return valid, err
		}
		valid += size
	}
	return valid, nil
}

// DecodePayload decodes one batch record into b (which is Reset
// first). Decoded device names are interned per Batch.
func DecodePayload(payload []byte, b *Batch) error {
	b.Reset()
	r := payloadReader{buf: payload}
	count, err := r.u32()
	if err != nil {
		return err
	}
	// A corrupt count must not drive allocation: every report costs at
	// least minReportWire bytes of payload.
	if uint64(count) > uint64(len(payload))/minReportWire+1 {
		return fmt.Errorf("wire: report count %d exceeds payload", count)
	}
	for i := uint32(0); i < count; i++ {
		dn, err := r.uvarint()
		if err != nil {
			return err
		}
		dev, err := r.bytes(dn)
		if err != nil {
			return err
		}
		atBits, err := r.u64()
		if err != nil {
			return err
		}
		epoch, err := r.uvarint()
		if err != nil {
			return err
		}
		seq, err := r.uvarint()
		if err != nil {
			return err
		}
		bn, err := r.uvarint()
		if err != nil {
			return err
		}
		if bn > uint64(len(r.buf))/beaconWire {
			return fmt.Errorf("wire: beacon count %d exceeds payload", bn)
		}
		b.AddReport(b.internDevice(dev), math.Float64frombits(atBits), epoch, seq)
		for k := uint64(0); k < bn; k++ {
			raw, err := r.bytes(beaconWire)
			if err != nil {
				return err
			}
			var bc Beacon
			copy(bc.ID.UUID[:], raw[:16])
			bc.ID.Major = binary.LittleEndian.Uint16(raw[16:18])
			bc.ID.Minor = binary.LittleEndian.Uint16(raw[18:20])
			bc.Distance = math.Float64frombits(binary.LittleEndian.Uint64(raw[20:28]))
			bc.RSSI = math.Float64frombits(binary.LittleEndian.Uint64(raw[28:36]))
			b.AddBeacon(bc)
		}
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after batch record", len(r.buf))
	}
	return nil
}

// DecodeFrame validates and decodes the single frame that must span
// exactly data — the shape HTTP request bodies arrive in.
func DecodeFrame(data []byte, b *Batch) error {
	payload, size, err := frameAt(data)
	if err != nil {
		return err
	}
	if size != len(data) {
		return fmt.Errorf("wire: %d trailing bytes after frame", len(data)-size)
	}
	return DecodePayload(payload, b)
}

// ScanReports walks a batch payload's per-report metadata — device,
// time, stamps — without decoding beacons, and returns the report
// count. This is the gateway's pre-split forward pass: registration
// and fencing need names and times, never beacon contents. The device
// slice is a view into payload, valid only during fn.
func ScanReports(payload []byte, fn func(device []byte, at float64, epoch, seq uint64) error) (int, error) {
	r := payloadReader{buf: payload}
	count, err := r.u32()
	if err != nil {
		return 0, err
	}
	if uint64(count) > uint64(len(payload))/minReportWire+1 {
		return 0, fmt.Errorf("wire: report count %d exceeds payload", count)
	}
	for i := uint32(0); i < count; i++ {
		dn, err := r.uvarint()
		if err != nil {
			return 0, err
		}
		dev, err := r.bytes(dn)
		if err != nil {
			return 0, err
		}
		atBits, err := r.u64()
		if err != nil {
			return 0, err
		}
		epoch, err := r.uvarint()
		if err != nil {
			return 0, err
		}
		seq, err := r.uvarint()
		if err != nil {
			return 0, err
		}
		bn, err := r.uvarint()
		if err != nil {
			return 0, err
		}
		if bn > uint64(len(r.buf))/beaconWire {
			return 0, fmt.Errorf("wire: beacon count %d exceeds payload", bn)
		}
		if _, err := r.bytes(bn * beaconWire); err != nil {
			return 0, err
		}
		if err := fn(dev, math.Float64frombits(atBits), epoch, seq); err != nil {
			return 0, err
		}
	}
	if len(r.buf) != 0 {
		return 0, fmt.Errorf("wire: %d trailing bytes after batch record", len(r.buf))
	}
	return int(count), nil
}

// AppendSection appends one pre-split section header (uvarint-length
// shard name) to dst; the caller appends the section's frame next with
// AppendFrame.
func AppendSection(dst []byte, shard string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(shard)))
	return append(dst, shard...)
}

// ScanSections walks a pre-split body — concatenated (shard name,
// frame) sections — calling fn with each shard name, the whole frame
// (forwarded verbatim on the fast path) and its validated payload.
// Unlike Scan, a body that does not parse end to end is an error: an
// upload is all-or-nothing, there is no torn tail to recover.
func ScanSections(data []byte, fn func(shard []byte, frame, payload []byte) error) error {
	off := 0
	for off < len(data) {
		n, sz := binary.Uvarint(data[off:])
		if sz <= 0 || n > uint64(len(data)-off-sz) {
			return fmt.Errorf("wire: bad section header at offset %d", off)
		}
		off += sz
		shard := data[off : off+int(n)]
		off += int(n)
		payload, size, err := frameAt(data[off:])
		if err != nil {
			return err
		}
		if err := fn(shard, data[off:off+size], payload); err != nil {
			return err
		}
		off += size
	}
	return nil
}

// --- pools ------------------------------------------------------------

var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// GetBatch fetches a pooled Batch, Reset and ready to fill.
func GetBatch() *Batch {
	b := batchPool.Get().(*Batch)
	b.Reset()
	return b
}

// PutBatch returns a Batch to the pool.
func PutBatch(b *Batch) { batchPool.Put(b) }

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// pooledBufMax bounds what returns to the buffer pool, so one giant
// batch does not pin its high-water mark forever.
const pooledBufMax = 1 << 20

// GetBuf fetches a pooled byte buffer (length zero).
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a buffer to the pool unless it grew past the cap.
func PutBuf(b *[]byte) {
	if cap(*b) <= pooledBufMax {
		bufPool.Put(b)
	}
}

// payloadReader is a bounds-checked cursor over one payload.
type payloadReader struct{ buf []byte }

func (r *payloadReader) u32() (uint32, error) {
	if len(r.buf) < 4 {
		return 0, ErrShortFrame
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v, nil
}

func (r *payloadReader) u64() (uint64, error) {
	if len(r.buf) < 8 {
		return 0, ErrShortFrame
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v, nil
}

func (r *payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, ErrShortFrame
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *payloadReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.buf)) {
		return nil, ErrShortFrame
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b, nil
}
