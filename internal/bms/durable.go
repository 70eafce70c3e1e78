// Durability: the BMS side of the write-ahead log. The store's WAL
// carries opaque payloads; this file defines what those payloads are —
// observation records (the hot path: the received wire payload plus
// the predicted rooms), JSON records for device installs/evicts, TTL
// expiries, model snapshots, fingerprints and leases — plus the
// compacting snapshot of the server's full state and the boot-time
// recovery that replays snapshot + log tail back through the normal
// mutation paths.
//
// Every durable mutation is log-then-apply: the record reaches the WAL
// (and, per fsync policy, the disk) before the in-memory state moves,
// under one wal.Begin guard so compaction can never cut a snapshot
// between a record's append and its apply. Replay is idempotent
// because observation records go back through apply and ride the same
// (Epoch, Seq) freshness marks as live ingest: records the pre-crash
// process had already committed replay as duplicates of themselves in
// per-device order.
//
// Observation records carry the room predicted at ingest time, so
// replay reproduces the pre-crash tracker state exactly even if the
// model changed between the observation and the crash — replay never
// re-predicts.
package bms

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"occusim/internal/building"
	"occusim/internal/classify"
	"occusim/internal/fingerprint"
	"occusim/internal/ibeacon"
	"occusim/internal/occupancy"
	"occusim/internal/store"
	"occusim/internal/svm"
	"occusim/internal/wire"
)

// DefaultCompactThreshold triggers a background compaction once the
// log grows past this many bytes since the last snapshot.
const DefaultCompactThreshold = 8 << 20

// durability is the WAL attachment of a durable Server.
type durability struct {
	wal              *store.WAL
	compactThreshold int64
	compacting       atomic.Bool
}

// DurableConfig configures OpenDurableServer.
type DurableConfig struct {
	// Dir is the WAL data directory (required).
	Dir string
	// Policy selects fsync eagerness (default FsyncBatch).
	Policy store.FsyncPolicy
	// FsyncInterval spaces background syncs under FsyncInterval
	// (0 takes the store default).
	FsyncInterval time.Duration
	// CompactThreshold overrides DefaultCompactThreshold (0 keeps it;
	// negative disables automatic compaction).
	CompactThreshold int64
}

// OpenDurableServer builds a BMS whose state survives process death:
// it opens (or creates) the WAL under cfg.Dir, restores the newest
// snapshot, replays the log tail, and returns a server that logs every
// mutation before applying it. st must be fresh — recovered state is
// restored into it. Callers should Close the server on a graceful
// drain (snapshot + truncate); after a crash the next OpenDurableServer
// recovers instead.
func OpenDurableServer(b *building.Building, st *store.Store, debounce int, cfg DurableConfig) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("bms: durable server needs a data dir")
	}
	s, err := NewServer(b, st, debounce)
	if err != nil {
		return nil, err
	}
	w, err := store.OpenWAL(cfg.Dir, store.ObsStripes, cfg.Policy, cfg.FsyncInterval)
	if err != nil {
		return nil, err
	}
	if err := s.recover(w); err != nil {
		_ = w.Close()
		return nil, err
	}
	threshold := cfg.CompactThreshold
	if threshold == 0 {
		threshold = DefaultCompactThreshold
	}
	s.dur = &durability{wal: w, compactThreshold: threshold}
	return s, nil
}

// Durable reports whether the server runs over a WAL.
func (s *Server) Durable() bool { return s.dur != nil }

// WALSize returns the log bytes appended since the last compaction
// (0 for a volatile server).
func (s *Server) WALSize() int64 {
	if s.dur == nil {
		return 0
	}
	return s.dur.wal.Size()
}

// Close drains a durable server: compacts the WAL (one final snapshot,
// logs truncated) and closes it. Volatile servers no-op. Close is the
// graceful path; a killed process simply recovers from snapshot + log
// at the next OpenDurableServer.
func (s *Server) Close() error {
	if s.dur == nil {
		return nil
	}
	if err := s.CompactWAL(); err != nil {
		_ = s.dur.wal.Close()
		return err
	}
	return s.dur.wal.Close()
}

// CompactWAL snapshots the server's full state and truncates the log.
func (s *Server) CompactWAL() error {
	if s.dur == nil {
		return fmt.Errorf("bms: server is not durable")
	}
	return s.dur.wal.Compact(s.writeDurableSnapshot)
}

// maybeCompact starts a background compaction when the log has
// outgrown the threshold. At most one runs at a time.
func (s *Server) maybeCompact() {
	d := s.dur
	if d.compactThreshold < 0 || d.wal.Size() < d.compactThreshold {
		return
	}
	if !d.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer d.compacting.Store(false)
		_ = d.wal.Compact(s.writeDurableSnapshot)
	}()
}

// --- wire records -----------------------------------------------------

// Record type tags.
const (
	recInstall = "install" // striped: a migrated device's state installed
	recEvict   = "evict"   // striped: a device's state evicted (migration)
	recExpire  = "expire"  // striped: TTL sweep expired these devices
	recModel   = "model"   // meta: a model snapshot went live
	recFP      = "fp"      // meta: a fingerprint sample was stored
	recLease   = "lease"   // meta: a gateway leadership epoch was granted
)

// walRecord is the JSON envelope of every WAL payload. Field presence
// follows T.
type walRecord struct {
	T       string         `json:"t"`
	State   *DeviceState   `json:"state,omitempty"`
	Device  string         `json:"device,omitempty"`
	Devices []string       `json:"devices,omitempty"`
	Snap    *ModelSnapshot `json:"snap,omitempty"`
	FP      *fpRecJSON     `json:"fp,omitempty"`
	Lease   *leaseRecJSON  `json:"lease,omitempty"`
}

// leaseRecJSON is a gateway leadership grant on disk — the cold meta
// record (and snapshot field) that makes write fencing survive a shard
// restart: a crashed arbiter must never re-grant a deposed epoch.
type leaseRecJSON struct {
	Epoch  uint64 `json:"epoch"`
	Holder string `json:"holder,omitempty"`
}

// obsRecJSON is one retained observation inside a snapshot. Times are
// exact integer nanoseconds — recovery must be byte-identical, not
// approximately so.
type obsRecJSON struct {
	Device  string          `json:"d"`
	AtNanos int64           `json:"at"`
	Epoch   uint64          `json:"e,omitempty"`
	Seq     uint64          `json:"s,omitempty"`
	Beacons []beaconRecJSON `json:"b,omitempty"`
}

type beaconRecJSON struct {
	ID       string  `json:"id"`
	Distance float64 `json:"d"`
	RSSI     float64 `json:"r,omitempty"`
}

type fpRecJSON struct {
	Room      string             `json:"room"`
	AtNanos   int64              `json:"atNanos"`
	Distances map[string]float64 `json:"distances"`
}

func encodeObservation(o store.Observation) obsRecJSON {
	rec := obsRecJSON{
		Device:  o.Device,
		AtNanos: int64(o.At),
		Epoch:   o.Epoch,
		Seq:     o.Seq,
	}
	for _, b := range o.Beacons {
		rec.Beacons = append(rec.Beacons, beaconRecJSON{
			ID: b.ID.String(), Distance: b.Distance, RSSI: b.RSSI,
		})
	}
	return rec
}

func (s *Server) decodeObservation(rec obsRecJSON) (store.Observation, error) {
	o := store.Observation{
		Device: rec.Device,
		At:     time.Duration(rec.AtNanos),
		Epoch:  rec.Epoch,
		Seq:    rec.Seq,
	}
	if len(rec.Beacons) > 0 {
		o.Beacons = make([]store.BeaconDistance, 0, len(rec.Beacons))
	}
	for _, b := range rec.Beacons {
		id, err := s.parseBeaconID(b.ID)
		if err != nil {
			return store.Observation{}, err
		}
		o.Beacons = append(o.Beacons, store.BeaconDistance{ID: id, Distance: b.Distance, RSSI: b.RSSI})
	}
	return o, nil
}

// logObservations appends one record per run of same-stripe reports
// — the same grouping AddObservationBatch locks by, so a batch costs
// one append (and under FsyncBatch one fsync) per touched stripe, not
// per report. A record never spans stripes: replay goes stripe by
// stripe, and per-device order holds only within one. The caller holds
// the Begin guard.
func (s *Server) logObservations(b *wire.Batch, rooms []string) error {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	for i := 0; i < b.Len(); {
		idx := store.StripeFor(b.Devices[i])
		j := i + 1
		for j < b.Len() && store.StripeFor(b.Devices[j]) == idx {
			j++
		}
		*buf = appendObsRecord((*buf)[:0], b, i, j, rooms)
		if err := s.dur.wal.Append(idx, *buf); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// --- observation records ----------------------------------------------
//
// An observation record is the WAL's hot path — every ingested batch
// writes one per touched stripe — so it is binary, and its body is the
// wire codec's own batch payload: reports are logged in the bytes they
// arrived in, with no third codec. The layout:
//
//	[0]      obsTag
//	[1:5]    u32 LE length of the wire payload
//	[5:…]    wire payload (wire.AppendPayload) of one same-stripe run
//	[…]      per report, a uvarint-length predicted room
//
// JSON records start with '{', observation records with obsTag, and
// replayRecord dispatches on the first byte.

// obsTag is the first byte of an observation record. It can never open
// a JSON record ('{').
const obsTag = 0x02

// legacyObsTag opened the observation record of builds before the wire
// payload became the record body. Replay refuses it (see errPreWireLog).
const legacyObsTag = 0x01

// errPreWireLog rejects a log tail holding observation records in a
// form this build no longer reads. A graceful Close compacts to a
// snapshot (whose format is unchanged) and truncates the logs, so the
// upgrade path is a drain under the old binary first.
var errPreWireLog = errors.New("bms: wal replay: the log tail holds observation records of an older format; " +
	"drain the shard with the previous binary (a graceful shutdown compacts and truncates the log) before upgrading")

// appendObsRecord encodes reports [from, to) of b, with their rooms,
// as one observation record.
func appendObsRecord(dst []byte, b *wire.Batch, from, to int, rooms []string) []byte {
	dst = append(dst, obsTag, 0, 0, 0, 0)
	head := len(dst)
	dst = wire.AppendPayload(dst, b, from, to)
	binary.LittleEndian.PutUint32(dst[head-4:head], uint32(len(dst)-head))
	for _, room := range rooms[from:to] {
		dst = binary.AppendUvarint(dst, uint64(len(room)))
		dst = append(dst, room...)
	}
	return dst
}

// decodeObsRecord parses an observation record into b (Reset first)
// and returns the rooms logged with its reports. The frame checksum
// already screens disk corruption, so a malformed record means an
// encoder/decoder bug — it must still error, never panic.
func decodeObsRecord(rec []byte, b *wire.Batch) ([]string, error) {
	if len(rec) < 5 || rec[0] != obsTag {
		return nil, fmt.Errorf("bms: wal replay: short observation record")
	}
	n := binary.LittleEndian.Uint32(rec[1:5])
	rest := rec[5:]
	if uint64(n) > uint64(len(rest)) {
		return nil, fmt.Errorf("bms: wal replay: observation payload length %d exceeds record", n)
	}
	if err := wire.DecodePayload(rest[:n], b); err != nil {
		return nil, fmt.Errorf("bms: wal replay: %w", err)
	}
	rest = rest[n:]
	rooms := make([]string, b.Len())
	for i := range rooms {
		l, k := binary.Uvarint(rest)
		if k <= 0 || l > uint64(len(rest)-k) {
			return nil, fmt.Errorf("bms: wal replay: observation record truncated at room %d", i)
		}
		rooms[i] = string(rest[k : k+int(l)])
		rest = rest[k+int(l):]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("bms: wal replay: %d trailing bytes after observation record", len(rest))
	}
	return rooms, nil
}

// logStriped appends one non-observation striped record for a device.
// The caller holds the Begin guard.
func (s *Server) logStriped(device string, rec walRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("bms: wal encode: %w", err)
	}
	return s.dur.wal.Append(store.StripeFor(device), payload)
}

// logMeta appends an unstriped record. The caller holds the Begin
// guard.
func (s *Server) logMeta(rec walRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("bms: wal encode: %w", err)
	}
	return s.dur.wal.AppendMeta(payload)
}

// --- recovery ---------------------------------------------------------

// recover restores the newest snapshot and replays the log tail.
func (s *Server) recover(w *store.WAL) error {
	if r, ok, err := w.Snapshot(); err != nil {
		return err
	} else if ok {
		err := s.restoreDurableSnapshot(r)
		_ = r.Close()
		if err != nil {
			return err
		}
	}
	return w.Replay(s.replayRecord, func(_ int, payload []byte) error {
		return s.replayRecord(payload)
	})
}

// replayRecord applies one recovered WAL record through the normal
// mutation paths. Observation records go through apply with their
// logged rooms, deciding freshness against the recovered marks exactly
// as live ingest does, which is what makes a log holding duplicates
// (every accepted report is logged, fresh or not) replay to the
// committed state. Replay runs before the server is durable,
// instrumented or gated, so apply neither logs nor sheds nor counts.
func (s *Server) replayRecord(payload []byte) error {
	if len(payload) > 0 {
		switch payload[0] {
		case obsTag:
			b := wire.GetBatch()
			defer wire.PutBatch(b)
			rooms, err := decodeObsRecord(payload, b)
			if err != nil {
				return err
			}
			if _, err := s.apply(0, b, rooms); err != nil {
				return fmt.Errorf("bms: wal replay: %w", err)
			}
			return nil
		case legacyObsTag:
			return errPreWireLog
		}
	}
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("bms: wal decode: %w", err)
	}
	switch rec.T {
	case "obs": // the JSON observation record of the oldest builds
		return errPreWireLog
	case recInstall:
		if rec.State == nil {
			return fmt.Errorf("bms: wal replay: install record without state")
		}
		s.tracker.Install(rec.State.DeviceState)
		s.st.InstallSeqMark(rec.State.Device, rec.State.Epoch, rec.State.Seq)
	case recEvict:
		if rec.Device == "" {
			return fmt.Errorf("bms: wal replay: evict record without device")
		}
		s.tracker.Evict(rec.Device)
		s.st.EvictDevice(rec.Device)
	case recExpire:
		for _, device := range rec.Devices {
			// ExpireBefore semantics: drop tracker state and retained
			// observations, keep the ingest high-water mark.
			s.tracker.Evict(device)
			s.st.ExpireDevice(device)
		}
	case recModel:
		if rec.Snap == nil {
			return fmt.Errorf("bms: wal replay: model record without snapshot")
		}
		if err := s.restoreModel(*rec.Snap); err != nil {
			return err
		}
	case recLease:
		if rec.Lease == nil {
			return fmt.Errorf("bms: wal replay: lease record without grant")
		}
		s.installLease(rec.Lease.Epoch, rec.Lease.Holder)
	case recFP:
		if rec.FP == nil {
			return fmt.Errorf("bms: wal replay: fingerprint record without sample")
		}
		sample := fingerprint.Sample{
			Room:      rec.FP.Room,
			At:        time.Duration(rec.FP.AtNanos),
			Distances: map[ibeacon.BeaconID]float64{},
		}
		for raw, d := range rec.FP.Distances {
			id, err := s.parseBeaconID(raw)
			if err != nil {
				return fmt.Errorf("bms: wal replay: %w", err)
			}
			sample.Distances[id] = d
		}
		if err := s.st.AddFingerprint(sample); err != nil {
			return fmt.Errorf("bms: wal replay: %w", err)
		}
	default:
		return fmt.Errorf("bms: wal replay: unknown record type %q", rec.T)
	}
	return nil
}

// restoreModel rebuilds the live classifier from a recovered model
// snapshot, installing blob and version into the store through the
// same version-monotonic gate as a live distribution (replaying an
// older model over a snapshot-restored newer one must keep the newer).
func (s *Server) restoreModel(snap ModelSnapshot) error {
	beacons := make([]ibeacon.BeaconID, 0, len(snap.Beacons))
	for _, raw := range snap.Beacons {
		id, err := ibeacon.ParseBeaconID(raw)
		if err != nil {
			return fmt.Errorf("bms: wal replay: %w", err)
		}
		beacons = append(beacons, id)
	}
	model := new(svm.Model)
	if err := json.Unmarshal(snap.Model, model); err != nil {
		return fmt.Errorf("bms: wal replay: decode model: %w", err)
	}
	if got, want := len(beacons), model.NumFeatures(); got != want {
		return fmt.Errorf("bms: wal replay: snapshot carries %d beacons but the model was trained on %d features", got, want)
	}
	scene := classify.NewSceneSVM(beacons, model)
	s.clsMu.Lock()
	defer s.clsMu.Unlock()
	version, installed := s.st.InstallModel(snap.Model, snap.Version)
	if !installed && version != snap.Version {
		return nil
	}
	snap.Version = version
	s.sceneSVM = scene
	s.classifier = scene
	s.modelSnap = snap
	return nil
}

// --- snapshot ---------------------------------------------------------

// durableSnapJSON is the on-disk form of a server's full state: the
// store's training snapshot (verbatim), the distributable model
// snapshot (the training blob lacks the beacon feature order), every
// device's observations, ingest mark and tracker slice, and the
// committed event history.
type durableSnapJSON struct {
	Training  json.RawMessage  `json:"training"`
	ModelSnap *ModelSnapshot   `json:"modelSnap,omitempty"`
	Devices   []deviceSnapJSON `json:"devices,omitempty"`
	Events    []eventRecJSON   `json:"events,omitempty"`
	Lease     *leaseRecJSON    `json:"lease,omitempty"`
}

type deviceSnapJSON struct {
	Device       string                 `json:"device"`
	Epoch        uint64                 `json:"epoch,omitempty"`
	Seq          uint64                 `json:"seq,omitempty"`
	Tracker      *occupancy.DeviceState `json:"tracker,omitempty"`
	Observations []obsRecJSON           `json:"obs,omitempty"`
}

type eventRecJSON struct {
	AtNanos int64  `json:"at"`
	Device  string `json:"d"`
	Kind    int    `json:"k"`
	Room    string `json:"r"`
}

// writeDurableSnapshot serialises the server's full state. It runs
// under the WAL's exclusive compaction barrier, so no log-then-apply
// operation is in flight: the state it reads includes every logged
// record and nothing unlogged.
func (s *Server) writeDurableSnapshot(w io.Writer) error {
	var training bytes.Buffer
	if err := s.st.WriteSnapshot(&training); err != nil {
		return err
	}
	snap := durableSnapJSON{Training: json.RawMessage(bytes.TrimSpace(training.Bytes()))}
	if ms, ok := s.ModelSnapshot(); ok {
		snap.ModelSnap = &ms
	}
	devices := map[string]bool{}
	for _, d := range s.st.KnownDevices() {
		devices[d] = true
	}
	for _, d := range s.tracker.KnownDevices() {
		devices[d] = true
	}
	names := make([]string, 0, len(devices))
	for d := range devices {
		names = append(names, d)
	}
	sort.Strings(names)
	for _, device := range names {
		ds := deviceSnapJSON{Device: device}
		ds.Epoch, ds.Seq = s.st.SeqMark(device)
		if tr, ok := s.tracker.Export(device); ok {
			ds.Tracker = &tr
		}
		for _, o := range s.st.History(device) {
			ds.Observations = append(ds.Observations, encodeObservation(o))
		}
		snap.Devices = append(snap.Devices, ds)
	}
	for _, e := range s.tracker.Events() {
		snap.Events = append(snap.Events, eventRecJSON{
			AtNanos: int64(e.At), Device: e.Device, Kind: int(e.Kind), Room: e.Room,
		})
	}
	if epoch, holder := s.GrantedLease(); epoch > 0 {
		snap.Lease = &leaseRecJSON{Epoch: epoch, Holder: holder}
	}
	return json.NewEncoder(w).Encode(snap)
}

// restoreDurableSnapshot loads a snapshot into a fresh server.
func (s *Server) restoreDurableSnapshot(r io.Reader) error {
	var snap durableSnapJSON
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("bms: snapshot decode: %w", err)
	}
	if len(snap.Training) > 0 {
		if err := s.st.ReadSnapshot(bytes.NewReader(snap.Training)); err != nil {
			return err
		}
	}
	if snap.ModelSnap != nil {
		if err := s.restoreModel(*snap.ModelSnap); err != nil {
			return err
		}
	}
	for _, ds := range snap.Devices {
		if len(ds.Observations) > 0 {
			obs := make([]store.Observation, 0, len(ds.Observations))
			for _, rec := range ds.Observations {
				o, err := s.decodeObservation(rec)
				if err != nil {
					return fmt.Errorf("bms: snapshot: %w", err)
				}
				obs = append(obs, o)
			}
			s.st.RestoreObservations(ds.Device, obs)
		}
		s.st.InstallSeqMark(ds.Device, ds.Epoch, ds.Seq)
		if ds.Tracker != nil {
			s.tracker.Install(*ds.Tracker)
		}
	}
	if len(snap.Events) > 0 {
		events := make([]occupancy.Event, 0, len(snap.Events))
		for _, e := range snap.Events {
			events = append(events, occupancy.Event{
				At: time.Duration(e.AtNanos), Device: e.Device,
				Kind: occupancy.EventKind(e.Kind), Room: e.Room,
			})
		}
		s.tracker.InstallEvents(events)
	}
	if snap.Lease != nil {
		s.installLease(snap.Lease.Epoch, snap.Lease.Holder)
	}
	return nil
}

// KnownDevices returns every device this server holds durable or
// tracker state for, sorted — the recovered device set a restarted
// gateway rebuilds its registry from (GET /api/v1/devices).
func (s *Server) KnownDevices() []string {
	seen := map[string]bool{}
	for _, d := range s.st.KnownDevices() {
		seen[d] = true
	}
	for _, d := range s.tracker.KnownDevices() {
		seen[d] = true
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}
