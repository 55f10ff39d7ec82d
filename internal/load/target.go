package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/server"
)

// Targets: where a schedule's requests go. Both real targets speak the
// query service's HTTP surface, so outcomes are classified the same way
// whether the server is across a socket or in the same address space.

// Outcome is the judged result of one request.
type Outcome struct {
	// Req is the scheduled request this outcome answers.
	Req Request `json:"req"`
	// Code is the HTTP status (200, 429, 503, 504, ...); 0 means the
	// request itself failed (transport error).
	Code int `json:"code"`
	// Reason is the server's X-Reject-Reason header when rejected:
	// queue-full, queue-timeout, deadline-shed, or rate-limit.
	Reason string `json:"reason,omitempty"`
	// Latency is submit-to-reply time (for rejections: submit-to-reject).
	Latency time.Duration `json:"latency"`
	// Err carries the transport error text when Code is 0.
	Err string `json:"err,omitempty"`
}

// Good reports whether the outcome counts toward goodput: a 200 reply
// within the request's latency budget.
func (o *Outcome) Good() bool {
	return o.Code == http.StatusOK && o.Latency <= o.Req.Deadline
}

// Target fires one request and judges the reply.
type Target interface {
	Do(ctx context.Context, req Request) Outcome
}

// queryBody is the wire shape of POST /v1/query (a copy of the server's
// request schema; kept local so the generator exercises the real decode
// path instead of sharing a struct with the server).
type queryBody struct {
	Graph     string `json:"graph"`
	Kernel    string `json:"kernel"`
	Source    uint64 `json:"source"`
	TimeoutMs int64  `json:"timeout_ms,omitempty"`
	NoCache   bool   `json:"no_cache,omitempty"`
}

// HTTPTarget drives a live query service over HTTP.
type HTTPTarget struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// Graph names the served graph to query.
	Graph string
	// NoCache sets no_cache on every query.
	NoCache bool
	// Client overrides the HTTP client; nil uses http.DefaultClient. The
	// per-request context already bounds each call's lifetime.
	Client *http.Client
}

func (t *HTTPTarget) Do(ctx context.Context, req Request) Outcome {
	body, err := json.Marshal(queryBody{
		Graph:     t.Graph,
		Kernel:    req.Kernel,
		Source:    req.Source,
		TimeoutMs: req.Deadline.Milliseconds(),
		NoCache:   t.NoCache,
	})
	if err != nil {
		return Outcome{Req: req, Err: err.Error()}
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, t.Base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return Outcome{Req: req, Err: err.Error()}
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(server.TenantHeader, req.Tenant)
	hreq.Header.Set(server.ClassHeader, req.Class)
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	start := time.Now()
	resp, err := client.Do(hreq)
	latency := time.Since(start)
	if err != nil {
		return Outcome{Req: req, Latency: latency, Err: err.Error()}
	}
	_ = resp.Body.Close() // outcome classification needs only status + headers
	return Outcome{
		Req:     req,
		Code:    resp.StatusCode,
		Reason:  resp.Header.Get(server.RejectReasonHeader),
		Latency: latency,
	}
}

// Vertices asks a live server for the named graph's vertex count via
// /v1/graphs, so cfg.Vertices can be derived instead of guessed.
func (t *HTTPTarget) Vertices(ctx context.Context) (uint64, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, t.Base+"/v1/graphs", nil)
	if err != nil {
		return 0, err
	}
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var inv struct {
		Graphs []struct {
			Name     string `json:"name"`
			Vertices uint64 `json:"vertices"`
		} `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		return 0, err
	}
	for _, g := range inv.Graphs {
		if g.Name == t.Graph {
			return g.Vertices, nil
		}
	}
	return 0, fmt.Errorf("load: graph %q not served (see /v1/graphs)", t.Graph)
}

// HandlerTarget drives an http.Handler (an in-process server.Server) with
// no network in between: the handler runs on the caller's goroutine against
// a minimal in-memory response recorder.
type HandlerTarget struct {
	Handler http.Handler
	Graph   string
	NoCache bool
}

func (t *HandlerTarget) Do(ctx context.Context, req Request) Outcome {
	body, err := json.Marshal(queryBody{
		Graph:     t.Graph,
		Kernel:    req.Kernel,
		Source:    req.Source,
		TimeoutMs: req.Deadline.Milliseconds(),
		NoCache:   t.NoCache,
	})
	if err != nil {
		return Outcome{Req: req, Err: err.Error()}
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/query", bytes.NewReader(body))
	if err != nil {
		return Outcome{Req: req, Err: err.Error()}
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(server.TenantHeader, req.Tenant)
	hreq.Header.Set(server.ClassHeader, req.Class)
	rec := &responseRecorder{code: http.StatusOK, header: make(http.Header)}
	start := time.Now()
	t.Handler.ServeHTTP(rec, hreq)
	latency := time.Since(start)
	return Outcome{
		Req:     req,
		Code:    rec.code,
		Reason:  rec.header.Get(server.RejectReasonHeader),
		Latency: latency,
	}
}

// responseRecorder is the minimal http.ResponseWriter HandlerTarget needs:
// status code and headers, body discarded.
type responseRecorder struct {
	code   int
	header http.Header
}

func (r *responseRecorder) Header() http.Header         { return r.header }
func (r *responseRecorder) WriteHeader(code int)        { r.code = code }
func (r *responseRecorder) Write(p []byte) (int, error) { return len(p), nil }
