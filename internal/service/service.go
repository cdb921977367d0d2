// Package service is the simulation-as-a-service core behind cmd/cbad: an
// HTTP/JSON server that accepts declarative scenario specs (the
// internal/scenario schema), executes them on a shared pool of
// scenario.Workers, and returns full results.
//
// Determinism is what makes the service scale: every run is a pure function
// of (compiled config, seed), so hash(spec, seed) is a perfect content
// address. The server exploits that twice —
//
//   - a bounded LRU result cache keyed by scenario.Spec.CacheKey() (the
//     semantic hash: labels and the seed schedule excluded) plus the run
//     seed, so identical submissions never re-simulate;
//   - single-flight deduplication, so N concurrent identical submissions
//     share one execution instead of racing N through the pool.
//
// Admission control is a bounded job queue (campaign.Pool): when the queue
// is full a submission is refused with HTTP 429 instead of queueing
// unboundedly, which keeps tail latency honest under overload.
//
// Beyond interactive runs, the server exposes an asynchronous job API for
// sharded mega-campaigns (POST/GET/DELETE /v1/jobs): a job is a campaign
// spec promoted to a resource whose id is the content hash of its spec,
// executed shard by shard through shard.Runner.RunShardOn on the same
// worker pool with a checkpoint after every chunk, so jobs survive a
// daemon restart and resume from their last checkpoint (see internal/shard
// and DESIGN.md §12). A per-job context stops a job mid-chunk on DELETE,
// on shutdown and on the chunk deadline.
//
// Every error response is a typed JSON envelope (APIError): a stable code,
// a human message, and optional detail.
//
// DESIGN.md §11 documents the architecture and the cache-key soundness
// argument.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"creditbus/internal/campaign"
	"creditbus/internal/fault"
	"creditbus/internal/scenario"
	"creditbus/internal/shard"
	"creditbus/internal/sim"
)

// Defaults for Options zero values.
const (
	DefaultQueue     = 256
	DefaultCacheSize = 4096
	// maxSpecBytes bounds a request body; the largest corpus spec is ~2 KiB,
	// so a mebibyte is generous without letting a client balloon memory.
	maxSpecBytes = 1 << 20
)

// Options configures a Server. Zero values pick the defaults.
type Options struct {
	// Workers is the simulation worker count — the number of concurrent
	// scenario.Workers. ≤ 0 means campaign.DefaultWorkers (GOMAXPROCS).
	Workers int
	// Queue is the admission queue capacity: runs accepted but not yet
	// executing. A full queue refuses new work with 429. ≤ 0 → DefaultQueue.
	Queue int
	// CacheSize is the result cache capacity in entries (one entry is one
	// (spec, seed) result). ≤ 0 → DefaultCacheSize.
	CacheSize int
	// JobsDir is the root of the on-disk job store for the asynchronous
	// campaign job API. Empty disables the API: /v1/jobs answers with the
	// jobs_disabled error code.
	JobsDir string
	// JobCheckpointEvery overrides the job chunk size in units (≤ 0 →
	// shard.DefaultCheckpointEvery). Exposed for tests that need frequent
	// checkpoints on small campaigns.
	JobCheckpointEvery int64
	// RunTimeout is the server-side deadline on a /v1/run request: a request
	// still waiting on executions past it fails with deadline_exceeded (504)
	// instead of holding its connection open. ≤ 0 disables the deadline.
	RunTimeout time.Duration
	// JobChunkTimeout bounds one job chunk: the queueing, simulation and
	// checkpoint save of up to JobCheckpointEvery units. A per-job
	// watchdog re-arms it at every checkpoint (and at the resume load); when
	// it fires, the job stops mid-chunk and fails with ErrChunkDeadline.
	// Its checkpoints persist, so the job is resumable. ≤ 0 disables the
	// deadline.
	JobChunkTimeout time.Duration
	// MaxConcurrentRuns bounds the /v1/run handlers admitted into execution
	// at once — the load-shedding gate that keeps /v1/healthz, /v1/stats and
	// GET /v1/jobs responsive when the pool is saturated. Handlers beyond it
	// are refused immediately with overloaded (503). ≤ 0 → workers×4 + queue
	// capacity (every execution slot plus every queue slot can be owned by a
	// handler, with headroom for cache hits).
	MaxConcurrentRuns int
	// Clock is the time source for the deadlines above. Nil → the wall
	// clock; tests inject a fault.FakeClock.
	Clock fault.Clock
	// FS is the filesystem the job store runs on. Nil → the real
	// filesystem; tests inject a fault.Injector.
	FS fault.FS
}

// flight is one in-progress execution other submitters of the same result
// key wait on. res and err are written exactly once, before done closes.
type flight struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// Server executes scenario runs on a shared worker pool with a
// content-addressed result cache. Create one with New, serve its Handler,
// and Close it to drain the pool.
type Server struct {
	pool       *campaign.Pool[*scenario.Worker]
	mu         sync.Mutex // guards cache and flights
	cache      *resultCache
	flights    map[string]*flight
	jobs       *jobEngine // nil when Options.JobsDir is empty
	jobUnits   atomic.Int64
	execGate   func() // test hook: runs in the worker before each execution
	clock      fault.Clock
	runTimeout time.Duration
	runSlots   chan struct{} // load-shedding gate for /v1/run handlers
	requests   atomic.Int64
	bad        atomic.Int64
	rejected   atomic.Int64
	shed       atomic.Int64
	deadlined  atomic.Int64
	quars      atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	coalesced  atomic.Int64
	execs      atomic.Int64
}

// New builds a Server and starts its worker pool.
func New(opts Options) (*Server, error) {
	if opts.Queue <= 0 {
		opts.Queue = DefaultQueue
	}
	if opts.CacheSize <= 0 {
		opts.CacheSize = DefaultCacheSize
	}
	pool, err := campaign.Options[*scenario.Worker]{
		Workers:        opts.Workers,
		Queue:          opts.Queue,
		PerWorkerState: func() *scenario.Worker { return new(scenario.Worker) },
	}.NewPool()
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if opts.Clock == nil {
		opts.Clock = fault.WallClock{}
	}
	if opts.FS == nil {
		opts.FS = fault.OS{}
	}
	if opts.MaxConcurrentRuns <= 0 {
		opts.MaxConcurrentRuns = pool.Workers()*4 + opts.Queue
	}
	s := &Server{
		pool:       pool,
		cache:      newResultCache(opts.CacheSize),
		flights:    map[string]*flight{},
		clock:      opts.Clock,
		runTimeout: opts.RunTimeout,
		runSlots:   make(chan struct{}, opts.MaxConcurrentRuns),
	}
	if opts.JobsDir != "" {
		s.jobs = &jobEngine{
			dir:             opts.JobsDir,
			pool:            pool,
			checkpointEvery: opts.JobCheckpointEvery,
			chunkTimeout:    opts.JobChunkTimeout,
			clock:           opts.Clock,
			fs:              opts.FS,
			unitsDone:       func(n int64) { s.jobUnits.Add(n) },
			onQuarantine:    func(string, string) { s.quars.Add(1) },
			onDeadline:      func() { s.deadlined.Add(1) },
			jobs:            map[string]*job{},
		}
		// Resume jobs a previous daemon left behind before serving traffic.
		if err := s.jobs.load(); err != nil {
			s.jobs.close()
			pool.Close()
			return nil, fmt.Errorf("service: load jobs: %w", err)
		}
	}
	return s, nil
}

// Close stops intake and waits for in-flight runs to drain: job drivers
// stop mid-chunk (their checkpoints persist, so a new daemon resumes them)
// and job removals in progress finish, then the pool drains.
func (s *Server) Close() {
	if s.jobs != nil {
		s.jobs.close()
	}
	s.pool.Close()
}

// Handler returns the server's HTTP routes:
//
//	POST   /v1/run        — submit a scenario spec, receive per-seed results
//	POST   /v1/jobs       — submit a campaign spec as an asynchronous job
//	GET    /v1/jobs       — list jobs
//	GET    /v1/jobs/{id}  — job status, progress, partial aggregates, report
//	DELETE /v1/jobs/{id}  — cancel a job and delete its checkpoints, then answer
//	GET    /v1/stats      — cache/queue/execution/job counters
//	GET    /v1/healthz    — liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, ErrCodeMethod, "GET only", "")
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, ErrCodeNotFound, "no such route", r.URL.Path)
	})
	return mux
}

// RunResult is one seed's outcome inside a RunResponse.
type RunResult struct {
	Seed uint64 `json:"seed"`
	// Cached reports a cache hit: the result was served without simulating
	// or waiting on an in-flight execution. Coalesced joins (this request
	// waited on another submission's execution) report false, like the
	// submission that ran it.
	Cached bool `json:"cached"`
	// Result is the full run result in its canonical snapshot form — the
	// same bytes a golden corpus file pins for this (spec, seed).
	Result scenario.ResultSnapshot `json:"result"`
}

// RunResponse is the POST /v1/run reply: the submitted scenario's semantic
// cache key and one result per seed of its schedule, in schedule order.
type RunResponse struct {
	Scenario string      `json:"scenario"`
	Key      string      `json:"key"`
	Runs     []RunResult `json:"runs"`
}

// Stats is the GET /v1/stats reply.
type Stats struct {
	Workers       int   `json:"workers"`
	QueueDepth    int   `json:"queue_depth"`
	QueueCapacity int   `json:"queue_capacity"`
	CacheEntries  int   `json:"cache_entries"`
	CacheCapacity int   `json:"cache_capacity"`
	InFlight      int   `json:"in_flight"`
	Requests      int64 `json:"requests"`
	BadRequests   int64 `json:"bad_requests"`
	Rejected      int64 `json:"rejected"`
	// LoadShed counts /v1/run requests refused by the concurrency gate
	// (overloaded, 503) before reaching admission control.
	LoadShed int64 `json:"load_shed"`
	// DeadlineExceeded counts requests and job chunks that hit a
	// server-side deadline.
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// Quarantines counts checkpoint-store files and job directories
	// quarantined as corrupt since daemon start.
	Quarantines int64 `json:"quarantines"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Coalesced   int64 `json:"coalesced"`
	Executions  int64 `json:"executions"`
	// Job API counters: registered jobs, jobs currently running, and the
	// total campaign units completed by job drivers since daemon start.
	JobsTotal    int   `json:"jobs_total"`
	JobsRunning  int   `json:"jobs_running"`
	JobUnitsDone int64 `json:"job_units_done"`
}

// Snapshot returns the current counters — the same numbers /v1/stats serves.
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	entries := s.cache.len()
	inFlight := len(s.flights)
	s.mu.Unlock()
	var jobsTotal, jobsRunning int
	if s.jobs != nil {
		jobsTotal, jobsRunning = s.jobs.counts()
	}
	return Stats{
		Workers:          s.pool.Workers(),
		QueueDepth:       s.pool.QueueDepth(),
		QueueCapacity:    s.pool.QueueCapacity(),
		CacheEntries:     entries,
		CacheCapacity:    s.cache.capacity,
		InFlight:         inFlight,
		Requests:         s.requests.Load(),
		BadRequests:      s.bad.Load(),
		Rejected:         s.rejected.Load(),
		LoadShed:         s.shed.Load(),
		DeadlineExceeded: s.deadlined.Load(),
		Quarantines:      s.quars.Load(),
		Hits:             s.hits.Load(),
		Misses:           s.misses.Load(),
		Coalesced:        s.coalesced.Load(),
		Executions:       s.execs.Load(),
		JobsTotal:        jobsTotal,
		JobsRunning:      jobsRunning,
		JobUnitsDone:     s.jobUnits.Load(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, ErrCodeMethod, "GET only", "")
		return
	}
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// handleJobs serves the job collection: POST submits a campaign, GET lists
// every job.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, ErrCodeJobsDisabled, "daemon started without a job store", "run cbad with -jobs-dir")
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.jobs.list())
	case http.MethodPost:
		s.requests.Add(1)
		body, ok := s.readSpec(w, r, "campaign")
		if !ok {
			return
		}
		spec, err := shard.ParseCampaign(body)
		if err != nil {
			s.bad.Add(1)
			writeError(w, ErrCodeInvalidSpec, "campaign spec rejected", err.Error())
			return
		}
		// Compile before touching the job store, so a bad spec is the
		// client's 400 and a store failure is the server's 500.
		camp, err := spec.Compile()
		if err != nil {
			s.bad.Add(1)
			writeError(w, ErrCodeInvalidSpec, "campaign spec rejected", err.Error())
			return
		}
		st, created, err := s.jobs.submit(camp)
		if err != nil {
			writeError(w, ErrCodeInternal, "job submission failed", err.Error())
			return
		}
		status := http.StatusOK
		if created {
			status = http.StatusCreated
		}
		writeJSON(w, status, st)
	default:
		writeError(w, ErrCodeMethod, "GET or POST only", "")
	}
}

// handleJob serves one job resource: GET for status, DELETE to cancel and
// discard.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, ErrCodeJobsDisabled, "daemon started without a job store", "run cbad with -jobs-dir")
		return
	}
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodGet:
		st, ok := s.jobs.get(id)
		if !ok {
			writeError(w, ErrCodeNotFound, "no such job", id)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case http.MethodDelete:
		st, ok, err := s.jobs.remove(id)
		switch {
		case !ok:
			writeError(w, ErrCodeNotFound, "no such job", id)
		case err != nil:
			writeError(w, ErrCodeInternal, "job removal failed", err.Error())
		default:
			writeJSON(w, http.StatusOK, st)
		}
	default:
		writeError(w, ErrCodeMethod, "GET or DELETE only", "")
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, ErrCodeMethod, "POST only", "")
		return
	}
	s.requests.Add(1)
	// Load shedding: bound the handlers in execution so a saturated pool
	// degrades into fast 503s while the health and observability routes
	// (which bypass this gate) stay responsive.
	select {
	case s.runSlots <- struct{}{}:
		defer func() { <-s.runSlots }()
	default:
		s.shed.Add(1)
		writeError(w, ErrCodeOverloaded, "run concurrency limit reached, retry later", "")
		return
	}
	body, ok := s.readSpec(w, r, "scenario")
	if !ok {
		return
	}
	spec, err := scenario.Parse(body)
	if err != nil {
		s.bad.Add(1)
		writeError(w, ErrCodeInvalidSpec, "scenario spec rejected", err.Error())
		return
	}
	// Compile validates; a spec that loads but breaks a schema rule (seed
	// overflow, duplicate seeds, bad geometry, ...) is the client's error.
	compiled, err := spec.Compile()
	if err != nil {
		s.bad.Add(1)
		writeError(w, ErrCodeInvalidSpec, "scenario spec rejected", err.Error())
		return
	}
	key, err := spec.CacheKey()
	if err != nil {
		writeError(w, ErrCodeInternal, "cache key derivation failed", err.Error())
		return
	}

	// Fan the whole schedule out first — the pool runs seeds of one request
	// concurrently — then collect in schedule order. An admission refusal
	// anywhere fails the request with 429, but runs already admitted keep
	// executing and land in the cache, so the retry is cheaper.
	type pending struct {
		seed   uint64
		res    sim.Result
		cached bool
		f      *flight
	}
	runs := make([]pending, 0, len(compiled.Seeds))
	for _, seed := range compiled.Seeds {
		p := pending{seed: seed}
		var err error
		p.res, p.cached, p.f, err = s.startRun(compiled, key, seed)
		if err != nil {
			s.rejected.Add(1)
			writeError(w, ErrCodeQueueFull, "queue full, retry later", "")
			return
		}
		runs = append(runs, p)
	}
	// One deadline spans the whole request — the time budget covers every
	// seed of the schedule, not each seed separately.
	var deadline <-chan time.Time
	if s.runTimeout > 0 {
		deadline = s.clock.After(s.runTimeout)
	}
	resp := RunResponse{Scenario: spec.Name, Key: key, Runs: make([]RunResult, 0, len(runs))}
	for i := range runs {
		p := &runs[i]
		if p.f != nil {
			select {
			case <-p.f.done:
			case <-deadline:
				// Executions already admitted keep running and land in the
				// cache; only this handler gives up.
				s.deadlined.Add(1)
				writeError(w, ErrCodeDeadline, "request deadline exceeded", s.runTimeout.String())
				return
			case <-r.Context().Done():
				return // client gone; nothing useful to write
			}
			p.res = p.f.res
			if err := p.f.err; err != nil {
				if errors.Is(err, campaign.ErrQueueFull) {
					// A joined flight whose submitter was refused admission.
					s.rejected.Add(1)
					writeError(w, ErrCodeQueueFull, "queue full, retry later", "")
					return
				}
				// A simulation error on a validated spec (e.g. the cycle
				// limit guard) is the submission's fault, not the server's.
				writeError(w, ErrCodeRunFailed, "simulation failed", err.Error())
				return
			}
		}
		resp.Runs = append(resp.Runs, RunResult{Seed: p.seed, Cached: p.cached, Result: scenario.Snap(p.res)})
	}
	writeJSON(w, http.StatusOK, resp)
}

// readSpec reads a request body of at most maxSpecBytes. When the read
// fails or the body is too large it counts a bad request, answers with the
// typed error (naming the spec kind) and returns false.
func (s *Server) readSpec(w http.ResponseWriter, r *http.Request, kind string) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		s.bad.Add(1)
		writeError(w, ErrCodeBadRequest, "read body", err.Error())
		return nil, false
	}
	if len(body) > maxSpecBytes {
		s.bad.Add(1)
		writeError(w, ErrCodeSpecTooLarge, kind+" spec too large", fmt.Sprintf("limit %d bytes", maxSpecBytes))
		return nil, false
	}
	return body, true
}

// startRun resolves one (spec, seed) run without blocking on execution: a
// cache hit returns the result directly (cached true, nil flight); otherwise
// the caller receives a flight to await — its own fresh execution admitted
// through the bounded pool, or a join of an identical run already in
// flight (single-flight deduplication). A non-nil error is an admission
// refusal (campaign.ErrQueueFull).
func (s *Server) startRun(c *scenario.Compiled, key string, seed uint64) (sim.Result, bool, *flight, error) {
	rk := fmt.Sprintf("%s/%d", key, seed)

	s.mu.Lock()
	if res, ok := s.cache.get(rk); ok {
		s.mu.Unlock()
		s.hits.Add(1)
		return res, true, nil, nil
	}
	if f, ok := s.flights[rk]; ok {
		// Someone is already simulating this exact run: join their flight.
		s.mu.Unlock()
		s.coalesced.Add(1)
		return sim.Result{}, false, f, nil
	}
	f := &flight{done: make(chan struct{})}
	s.flights[rk] = f
	s.mu.Unlock()
	s.misses.Add(1)

	err := s.pool.TrySubmit(func(w *scenario.Worker) {
		if s.execGate != nil {
			s.execGate()
		}
		s.execs.Add(1)
		f.res, f.err = c.RunOn(w, seed, "", nil)
		s.mu.Lock()
		if f.err == nil {
			s.cache.put(rk, f.res)
		}
		delete(s.flights, rk)
		s.mu.Unlock()
		close(f.done)
	})
	if err != nil {
		// Admission refused. Joiners that latched onto this flight between
		// the map insert and now must see the refusal too, so publish it
		// through the flight before retiring it.
		f.err = err
		s.mu.Lock()
		delete(s.flights, rk)
		s.mu.Unlock()
		close(f.done)
		return sim.Result{}, false, nil, err
	}
	return sim.Result{}, false, f, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client hanging up mid-write is not a server fault
}
