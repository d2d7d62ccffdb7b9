package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// UpdateRequest is the POST /v1/updates body.
type UpdateRequest struct {
	Ops []Op `json:"ops"`
}

// UpdateResponse wraps the batch report; Error carries the rejection
// message when the batch stopped early (HTTP 400, with the report of
// the prefix that did apply).
type UpdateResponse struct {
	BatchReport
	Error string `json:"error,omitempty"`
}

// colorResponse is the GET /v1/color/{node} body.
type colorResponse struct {
	Node    int    `json:"node"`
	Color   int    `json:"color"`
	Version uint64 `json:"version"`
}

// colorsResponse is the GET /v1/colors body; Colors[i] answers
// Nodes[i] from one consistent snapshot.
type colorsResponse struct {
	Nodes   []int  `json:"nodes"`
	Colors  []int  `json:"colors"`
	Version uint64 `json:"version"`
}

// HandlerOptions wires the durability and overload layers into the
// HTTP surface. The zero value reproduces the plain handler: direct
// ApplyBatch writes, default body limit, always-ready health.
type HandlerOptions struct {
	// Ingest, when set, routes POST /v1/updates through the bounded
	// admission queue; a full queue answers 503 + Retry-After.
	Ingest *Ingest
	// Health, when set, gates /readyz and rejects writes with 503
	// while recovering or draining.
	Health *Health
	// Durable, when set, contributes the durability section of
	// /v1/stats.
	Durable *Durable
	// DurableStats lazily supplies the durability section when the
	// Durable handle only exists after the handler (a server that
	// starts serving reads mid-recovery). Durable wins when both are
	// set; returning nil omits the section.
	DurableStats func() *DurabilityStats
	// MaxBody caps the POST /v1/updates body via http.MaxBytesReader;
	// oversized bodies get 413. 0 means 8 MiB.
	MaxBody int64
	// RequestTimeout bounds each write's total time in the queue +
	// apply; 0 means 30s.
	RequestTimeout time.Duration
}

func (o HandlerOptions) maxBody() int64 {
	if o.MaxBody > 0 {
		return o.MaxBody
	}
	return 8 << 20
}

func (o HandlerOptions) requestTimeout() time.Duration {
	if o.RequestTimeout > 0 {
		return o.RequestTimeout
	}
	return 30 * time.Second
}

// statsEnvelope is the /v1/stats body: the service account plus the
// durability and admission sections when those layers are wired.
type statsEnvelope struct {
	Stats
	Durability *DurabilityStats `json:"durability,omitempty"`
	Ingest     *IngestStats     `json:"ingest,omitempty"`
}

// NewHandler wires the plain service HTTP surface (no durability, no
// admission queue) — the zero-options form of NewHandlerWithOptions.
func NewHandler(s *Service) http.Handler {
	return NewHandlerWithOptions(s, HandlerOptions{})
}

// NewHandlerWithOptions wires the service's HTTP surface:
//
//	POST /v1/updates        batched ops, single-writer apply
//	GET  /v1/color/{node}   one color from the published snapshot
//	GET  /v1/colors?nodes=  many colors from one snapshot
//	GET  /v1/colors         full dump, streamed in bounded chunks
//	GET  /v1/stats          running maintenance account
//	GET  /healthz           liveness (200 while the process serves)
//	GET  /readyz            readiness (503 while recovering, draining,
//	                        or shedding load)
//
// Reads never block on writes: they load the atomically-swapped
// snapshot the last batch published and hold its color buffer's read
// lock, which the writer only ever try-locks — including during WAL
// replay, when they serve the restored checkpoint while /readyz says
// 503.
func NewHandlerWithOptions(s *Service, opts HandlerOptions) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/updates", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, opts.maxBody())
		req, err := decodeUpdate(r.Body)
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
				return
			}
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
			return
		}
		if h := opts.Health; h != nil && h.State() != HealthReady {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, fmt.Sprintf("writes unavailable: %s", h))
			return
		}
		var rep BatchReport
		if opts.Ingest != nil {
			ctx, cancel := context.WithTimeout(r.Context(), opts.requestTimeout())
			rep, err = opts.Ingest.Submit(ctx, req.Ops)
			cancel()
			switch {
			case errors.Is(err, ErrQueueFull):
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusServiceUnavailable, err.Error())
				return
			case errors.Is(err, ErrDraining):
				httpError(w, http.StatusServiceUnavailable, err.Error())
				return
			case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
				httpError(w, http.StatusServiceUnavailable, "request deadline expired in queue")
				return
			}
		} else {
			rep, err = s.ApplyBatch(req.Ops)
		}
		resp := UpdateResponse{BatchReport: rep}
		status := http.StatusOK
		if err != nil {
			resp.Error = err.Error()
			if errors.Is(err, ErrOp) {
				status = http.StatusBadRequest
			} else {
				status = http.StatusInternalServerError
			}
		}
		writeJSON(w, status, resp)
	})

	mux.HandleFunc("GET /v1/color/{node}", func(w http.ResponseWriter, r *http.Request) {
		v, err := strconv.Atoi(r.PathValue("node"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "node must be an integer")
			return
		}
		color, version, ok := s.Color(v)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Sprintf("node %d unknown", v))
			return
		}
		writeJSON(w, http.StatusOK, colorResponse{Node: v, Color: color, Version: version})
	})

	mux.HandleFunc("GET /v1/colors", func(w http.ResponseWriter, r *http.Request) {
		raw := r.URL.Query().Get("nodes")
		if raw == "" {
			p := s.acquire(s.pub.Load())
			defer p.buf.mu.RUnlock()
			streamAllColors(w, &p.Snapshot)
			return
		}
		parts := strings.Split(raw, ",")
		nodes := make([]int, 0, len(parts))
		for _, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("bad node %q", p))
				return
			}
			nodes = append(nodes, v)
		}
		colors, version, ok := s.ColorsOf(nodes)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown node in request")
			return
		}
		writeJSON(w, http.StatusOK, colorsResponse{Nodes: nodes, Colors: colors, Version: version})
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		env := statsEnvelope{Stats: s.Stats()}
		if opts.Durable != nil {
			ds := opts.Durable.DurabilityStats()
			env.Durability = &ds
		} else if opts.DurableStats != nil {
			env.Durability = opts.DurableStats()
		}
		if opts.Ingest != nil {
			is := opts.Ingest.Stats()
			env.Ingest = &is
		}
		writeJSON(w, http.StatusOK, env)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		state := "ready"
		if opts.Health != nil {
			state = opts.Health.String()
		}
		status := http.StatusOK
		if state != "ready" {
			status = http.StatusServiceUnavailable
		} else if opts.Ingest != nil && opts.Ingest.Saturated() {
			state, status = "saturated", http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]string{"status": state})
	})

	return mux
}

// decodeUpdate reads a POST /v1/updates body: exactly one JSON object
// with no unknown fields. A second value or any non-whitespace after
// the object rejects the whole body, so nothing of it is applied.
func decodeUpdate(body io.Reader) (UpdateRequest, error) {
	var req UpdateRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if _, err := dec.Token(); err != io.EOF {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return req, err
		}
		return req, errors.New("trailing data after the request object")
	}
	return req, nil
}

// streamAllColors writes the full color dump as one JSON document —
// {"version":V,"n":N,"colors":[...]} — in fixed-size chunks through
// the ResponseWriter's chunked encoding, so a 10⁶-node dump needs one
// scratch buffer instead of an O(n) intermediate encoding. The caller
// holds the snapshot's color buffer read lock for the whole stream, so
// it is consistent even while batches keep applying; the writer only
// try-locks that lock, so a slow client never stalls a batch, and at
// most costs one batch a full copy of the colors.
func streamAllColors(w http.ResponseWriter, snap *Snapshot) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	buf := make([]byte, 0, 16<<10)
	buf = append(buf, `{"version":`...)
	buf = strconv.AppendUint(buf, snap.Version, 10)
	buf = append(buf, `,"n":`...)
	buf = strconv.AppendInt(buf, int64(len(snap.Colors)), 10)
	buf = append(buf, `,"colors":[`...)
	flush := func() bool {
		if _, err := w.Write(buf); err != nil {
			return false
		}
		buf = buf[:0]
		return true
	}
	for i, c := range snap.Colors {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(c), 10)
		if len(buf) >= cap(buf)-24 {
			if !flush() {
				return
			}
		}
	}
	buf = append(buf, "]}\n"...)
	flush()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
