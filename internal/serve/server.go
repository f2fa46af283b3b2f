// Package serve turns the rule engine into a long-running optimization
// service: an HTTP/JSON front-end over the cost-guided engine, a
// concurrent sharded plan cache (canonicalized program + machine
// parameters → verified optimized plan, single-flight per key, LRU
// bounded), and a cross-request fusion window that batches compatible
// collectives arriving close in time into one optimization over their
// combined block — the oneCCL-style bytes/count/cycle thresholds applied
// to the paper's rewrite engine. cmd/collserve is the daemon around it.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rules"
)

// Config sizes a Server.
type Config struct {
	// Machine is the default machine (requests may override P and M,
	// and Ts/Tw explicitly).
	Machine core.Machine
	// CacheSize and CacheShards shape the plan cache.
	CacheSize, CacheShards int
	// FuseCycle, FuseMaxCount and FuseMaxBytes are the fusion-window
	// thresholds.
	FuseCycle    time.Duration
	FuseMaxCount int
	FuseMaxBytes int
	// NoVerify disables semantic verification of newly computed plans
	// (verification is on by default).
	NoVerify bool
}

// DefaultConfig is the daemon's default geometry: a 4096-plan cache over
// 64 shards, a 2 ms fusion cycle flushing at 16 requests or 64 KiB, and
// verification on (each plan is verified once, then served from cache).
func DefaultConfig() Config {
	return Config{
		Machine:      core.Machine{Ts: 1000, Tw: 1, P: 64, M: 64},
		CacheSize:    4096,
		CacheShards:  64,
		FuseCycle:    2 * time.Millisecond,
		FuseMaxCount: 16,
		FuseMaxBytes: 64 << 10,
	}
}

// Request is the body of POST /optimize.
type Request struct {
	// Program is the pipeline in the surface syntax, e.g.
	// "bcast ; scan(+) ; reduce(+)".
	Program string `json:"program"`
	// Ts and Tw override the server's machine parameters when non-nil.
	Ts *float64 `json:"ts,omitempty"`
	Tw *float64 `json:"tw,omitempty"`
	// P and M override the processor count and block size when positive.
	P int `json:"p,omitempty"`
	M int `json:"m,omitempty"`
	// Fuse opts the request into the fusion window (only programs whose
	// every stage is a standard collective are fusible; others fall back
	// to the direct path).
	Fuse bool `json:"fuse,omitempty"`
	// Strategy selects the optimizer: "greedy" (the default) or "search"
	// for the global plan search.
	Strategy string `json:"strategy,omitempty"`
	// Select enables collective-algorithm auto-selection: the plan is
	// scored with the calibrated portfolio model and records which
	// algorithm each eligible reduction should run (Plan.Selection).
	// Selected plans are cached under select-qualified keys.
	Select bool `json:"select,omitempty"`
}

// Response is the body of a successful POST /optimize.
type Response struct {
	Plan
	// Cached reports that the plan came from the cache (including
	// waiting on a computation already in flight).
	Cached bool `json:"cached"`
	// Machine echoes the parameters the plan was computed at; under
	// fusion M is the fused block size.
	Machine core.Machine `json:"machine"`
	// Fusion is set when the request went through the fusion window.
	Fusion *FusionInfo `json:"fusion,omitempty"`
}

// Snapshot is the /metrics document.
type Snapshot struct {
	UptimeSeconds float64     `json:"uptime_s"`
	Requests      uint64      `json:"requests"`
	Optimized     uint64      `json:"optimized"`
	Errors        uint64      `json:"errors"`
	InFlight      int64       `json:"in_flight"`
	EngineRuns    int64       `json:"engine_runs"`
	Cache         CacheStats  `json:"cache"`
	Fusion        FusionStats `json:"fusion"`
}

// Server is the optimizer service: handlers over a planner and a fuser.
type Server struct {
	cfg     Config
	planner *Planner
	fuser   *Fuser
	mux     *http.ServeMux

	start     time.Time
	requests  atomic.Uint64
	optimized atomic.Uint64
	errors    atomic.Uint64
	inFlight  atomic.Int64
}

// New assembles a server from the config (zero fields fall back to
// DefaultConfig values).
func New(cfg Config) *Server {
	def := DefaultConfig()
	if cfg.Machine.P == 0 {
		cfg.Machine = def.Machine
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = def.CacheSize
	}
	if cfg.CacheShards <= 0 {
		cfg.CacheShards = def.CacheShards
	}
	if cfg.FuseCycle <= 0 {
		cfg.FuseCycle = def.FuseCycle
	}
	if cfg.FuseMaxCount <= 0 {
		cfg.FuseMaxCount = def.FuseMaxCount
	}
	if cfg.FuseMaxBytes <= 0 {
		cfg.FuseMaxBytes = def.FuseMaxBytes
	}
	pl := NewPlanner(cfg.CacheSize, cfg.CacheShards)
	pl.Verify = !cfg.NoVerify
	s := &Server{
		cfg:     cfg,
		planner: pl,
		fuser:   NewFuser(pl, cfg.FuseCycle, cfg.FuseMaxCount, cfg.FuseMaxBytes),
		mux:     http.NewServeMux(),
		start:   time.Now(),
	}
	s.mux.HandleFunc("/optimize", s.handleOptimize)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Planner exposes the planner (tests and the load generator use its
// counters).
func (s *Server) Planner() *Planner { return s.planner }

// Fuser exposes the fusion layer.
func (s *Server) Fuser() *Fuser { return s.fuser }

// Handler is the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		s.mux.ServeHTTP(w, r)
	})
}

// Drain flushes open fusion windows; call after the HTTP listener has
// stopped accepting.
func (s *Server) Drain() { s.fuser.Drain() }

// Metrics snapshots every counter.
func (s *Server) Metrics() Snapshot {
	return Snapshot{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Optimized:     s.optimized.Load(),
		Errors:        s.errors.Load(),
		InFlight:      s.inFlight.Load(),
		EngineRuns:    s.planner.EngineRuns(),
		Cache:         s.planner.Cache.Stats(),
		Fusion:        s.fuser.Stats(),
	}
}

// machineFor resolves a request's machine parameters over the defaults.
func (s *Server) machineFor(req Request) (core.Machine, error) {
	m := s.cfg.Machine
	if req.Ts != nil {
		m.Ts = *req.Ts
	}
	if req.Tw != nil {
		m.Tw = *req.Tw
	}
	if req.P != 0 {
		m.P = req.P
	}
	if req.M != 0 {
		m.M = req.M
	}
	if m.P < 1 {
		return m, fmt.Errorf("p must be positive, got %d", m.P)
	}
	if m.M < 1 {
		return m, fmt.Errorf("m must be positive, got %d", m.M)
	}
	if m.M > maxWords {
		return m, fmt.Errorf("m must be at most %d words (its byte size must fit an int), got %d", maxWords, m.M)
	}
	if m.Ts < 0 || m.Tw < 0 || !finite(m.Ts) || !finite(m.Tw) {
		return m, fmt.Errorf("ts and tw must be finite and non-negative, got ts=%g tw=%g", m.Ts, m.Tw)
	}
	return m, nil
}

// maxBodyBytes caps an /optimize request body; a larger one is refused
// with a 413 before it is decoded in full.
const maxBodyBytes = 1 << 20

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
			return
		}
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	mach, err := s.machineFor(req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad machine parameters: %v", err)
		return
	}
	strat, err := ParseStrategy(req.Strategy)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad strategy: %v", err)
		return
	}
	t, err := s.planner.ParseProgram(req.Program)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "parse error: %v", err)
		return
	}

	var resp Response
	if req.Fuse && Fusible(t) {
		plan, cached, info, err := s.fuser.Submit(t, rules.Canonical(t), mach, strat, req.Select)
		if err != nil {
			s.fail(w, http.StatusInternalServerError, "optimization failed: %v", err)
			return
		}
		fusedMach := mach
		fusedMach.M = info.FusedM
		resp = Response{Plan: plan, Cached: cached, Machine: fusedMach, Fusion: &info}
	} else {
		plan, cached, err := s.planner.PlanTermOpts(t, mach, strat, req.Select)
		if err != nil {
			s.fail(w, http.StatusInternalServerError, "optimization failed: %v", err)
			return
		}
		resp = Response{Plan: plan, Cached: cached, Machine: mach}
	}
	s.optimized.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"in_flight": s.inFlight.Load(),
		"uptime_s":  time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.errors.Add(1)
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON encodes v before committing the status, so a value that does
// not encode (a non-finite float) becomes a JSON 500 instead of a 200
// with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": fmt.Sprintf("encoding the response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
}
