// Binary ingest face: the wire-codec branch of
// POST /api/v1/observations:batch. The frame decodes into a pooled
// wire.Batch — beacon identities already binary, no per-beacon string
// parse — and goes straight to apply, the path every face shares.
package bms

import (
	"fmt"
	"io"
	"net/http"

	"occusim/internal/wire"
)

// handleWireObservationBatch serves the binary branch: one wire frame,
// decoded into a pooled batch and applied with no intermediate report
// slice.
func (s *Server) handleWireObservationBatch(w http.ResponseWriter, r *http.Request) {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	body, err := readWireBody(r, buf)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	if err := wire.DecodeFrame(body, b); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode frame: %w", err))
		return
	}
	rooms, err := s.apply(gatewayEpochFrom(r), b, nil)
	if err != nil {
		writeIngestError(w, err)
		return
	}
	if rooms == nil {
		rooms = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"rooms": rooms})
}

// readWireBody drains the request body into the pooled buffer.
func readWireBody(r *http.Request, dst *[]byte) ([]byte, error) {
	b := (*dst)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			*dst = b
			return b, nil
		}
		if err != nil {
			*dst = b
			return nil, err
		}
	}
}
