// Pre-split forwarding: the gateway-side half of the device pre-split
// protocol. A device that fetched the routing table (GET /api/v1/ring)
// splits its batch per shard on its own CPU, encodes one wire frame
// per owner, and uploads the sections with the ring digest it split
// against. When that digest still matches the gateway's, the gateway
// skips its decode → hash → split → re-encode pipeline entirely and
// forwards each section's frame to its shard verbatim — the bytes the
// device encoded are the bytes the shard decodes. Everything the
// gateway normally guarantees is preserved: admission control, the
// migration fence pause, device registration for rebalance and TTL
// sweeps, per-shard breakers and telemetry, and the misbehaving-shard
// rooms check. A stale digest (routing flipped since the device
// fetched the ring) rejects with ErrPresplitMismatch and the HTTP face
// falls back to decode + IngestBatch — correctness never depends on
// device-side freshness.
package fleet

import (
	"errors"
	"fmt"
	"time"

	"occusim/internal/transport"
	"occusim/internal/wire"
)

// FrameIngester is the optional fast-path capability of a Shard: ingest
// a verbatim wire frame carrying the given report count, returning the
// predicted room per report in frame order. LocalShard and HTTPShard
// implement it; a shard that does not (a test double, an old client)
// fails the type assertion and the gateway falls back to the decoded
// path for the whole upload.
type FrameIngester interface {
	IngestFrame(frame []byte, reports int) ([]string, error)
}

// PresplitSection is one shard's slice of a device-split upload:
// the shard name the device resolved and that shard's wire frame.
// Frame and Payload alias the request body; IngestPresplit does not
// retain them past the call.
type PresplitSection struct {
	Shard   string
	Frame   []byte
	Payload []byte
}

// ErrPresplitMismatch rejects a pre-split upload the gateway cannot
// forward verbatim: the digest is stale (routing changed since the
// device fetched the ring), a named shard is unknown, a shard cannot
// ingest frames, or skew correction is enabled (it must see every
// report's timestamp before routing). The caller decodes and takes the
// ordinary IngestBatch path — the upload is never lost.
var ErrPresplitMismatch = errors.New("fleet: pre-split upload does not match routing")

// IngestPresplit forwards a device-split upload, one frame per shard,
// without decoding the beacon payloads. Returns the rooms per section
// (section order, report order within). Admission, fences, device
// registration, breakers and telemetry behave exactly as IngestBatch.
func (g *Gateway) IngestPresplit(digest string, sections []PresplitSection) ([][]string, error) {
	if len(sections) == 0 {
		return nil, nil
	}
	if g.skew != nil {
		// Skew correction rewrites timestamps before routing; a verbatim
		// forward would bypass it. Fall back to the decoded path.
		return nil, ErrPresplitMismatch
	}
	idxOf := make([]int, len(sections))
	for k := range sections {
		idx, ok := g.byName[sections[k].Shard]
		if !ok {
			return nil, ErrPresplitMismatch
		}
		if _, ok := g.shards[idx].(FrameIngester); !ok {
			return nil, ErrPresplitMismatch
		}
		idxOf[k] = idx
	}
	admit, err := g.gate.Acquire()
	if err != nil {
		return nil, err
	}
	defer admit()

	gm := g.met
	var splitStart time.Time
	if gm != nil {
		splitStart = time.Now()
	}
	// One metadata pass per section: device names, per-device in-flight
	// counts and the report-clock high-water mark — everything acquire()
	// learns from decoded reports, read from the frame headers without
	// touching the beacon payloads.
	var (
		devices []string
		counts  []int
		maxAt   float64
		nOf     = make([]int, len(sections))
		total   int
		seen    = map[string]int{}
	)
	for k := range sections {
		n, err := wire.ScanReports(sections[k].Payload, func(device []byte, at float64, epoch, seq uint64) error {
			// Checked before acquireNamed records maxAt, as IngestBatch
			// checks before acquire.
			if _, err := transport.ReportTime(at); err != nil {
				return err
			}
			if at > maxAt {
				maxAt = at
			}
			if i, ok := seen[string(device)]; ok {
				counts[i]++
				return nil
			}
			d := string(device)
			seen[d] = len(devices)
			devices = append(devices, d)
			counts = append(counts, 1)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: pre-split section %q: %w", sections[k].Shard, err)
		}
		nOf[k] = n
		total += n
	}
	if gm != nil {
		gm.batchSize.Observe(int64(total))
	}
	release, err := g.acquireNamed(digest, devices, counts, maxAt)
	if err != nil {
		return nil, err
	}
	defer release()
	if gm != nil {
		gm.splitTime.Since(splitStart)
	}

	rooms := make([][]string, len(sections))
	errs := make([]error, len(sections))
	dispatch := func(k int) {
		idx := idxOf[k]
		if err := g.breakerAllow(idx); err != nil {
			errs[k] = err
			return
		}
		var sendStart time.Time
		if gm != nil {
			sendStart = time.Now()
		}
		out, err := g.shards[idx].(FrameIngester).IngestFrame(sections[k].Frame, nOf[k])
		if gm != nil {
			gm.sendLatency[idx].Since(sendStart)
		}
		g.breakerObserve(idx, err)
		if err != nil {
			errs[k] = fmt.Errorf("fleet: shard %s: %w", g.shards[idx].Name(), err)
			return
		}
		if len(out) != nOf[k] {
			errs[k] = fmt.Errorf("%w: shard %s returned %d rooms for %d reports",
				ErrShardMisbehaved, g.shards[idx].Name(), len(out), nOf[k])
			return
		}
		rooms[k] = out
		g.note(idx, int64(nOf[k]))
	}
	if g.serial || len(sections) == 1 {
		for k := range sections {
			dispatch(k)
		}
	} else {
		done := make(chan int, len(sections))
		for k := range sections {
			go func(k int) { dispatch(k); done <- k }(k)
		}
		for range sections {
			<-done
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if gm != nil {
		gm.presplitForwarded.Inc()
	}
	return rooms, nil
}

// acquireNamed is acquire() for a pre-split upload: the same critical
// section — fence check, registration, in-flight accounting under one
// shared hold of the routing lock — except that instead of resolving
// owners it verifies the caller's digest against the gateway's. A
// fence wait implies a routing change, which implies a digest change,
// so the retry loop always exits with ErrPresplitMismatch after a
// migration rather than forwarding against the new table.
func (g *Gateway) acquireNamed(digest string, devices []string, counts []int, maxAt float64) (release func(), err error) {
	for {
		g.mu.RLock()
		if g.digest != digest {
			g.mu.RUnlock()
			return nil, ErrPresplitMismatch
		}
		if len(g.fenced) > 0 {
			var wait chan struct{}
			for _, d := range devices {
				if f, ok := g.fenced[d]; ok {
					wait = f.done
					break
				}
			}
			if wait != nil {
				g.mu.RUnlock()
				<-wait
				continue
			}
		}
		g.devMu.Lock()
		for i, d := range devices {
			g.known[d] = struct{}{}
			g.flight[d] += counts[i]
		}
		if maxAt > g.maxAt {
			g.maxAt = maxAt
		}
		g.devMu.Unlock()
		g.mu.RUnlock()
		return func() {
			g.devMu.Lock()
			for i, d := range devices {
				if g.flight[d] -= counts[i]; g.flight[d] <= 0 {
					delete(g.flight, d)
				}
			}
			g.devMu.Unlock()
			g.flightCond.Broadcast()
		}, nil
	}
}
