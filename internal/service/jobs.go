package service

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"creditbus/internal/campaign"
	"creditbus/internal/fault"
	"creditbus/internal/shard"
	"creditbus/internal/sim"
	"creditbus/internal/stats"
)

// ErrChunkDeadline — a job chunk (queueing plus execution of up to
// checkpointEvery units) exceeded the configured chunk deadline. The job
// fails typed; its checkpoints persist and a restart resumes it.
var ErrChunkDeadline = errors.New("service: job chunk deadline exceeded")

// Job states reported by the job API.
const (
	// JobRunning — shards are executing (or queued behind the pool).
	JobRunning = "running"
	// JobDone — every shard completed; Report is final.
	JobDone = "done"
	// JobFailed — a unit errored; Error carries the cause.
	JobFailed = "failed"
	// JobCancelled — stopped by DELETE. The job's directory is removed, so
	// resubmitting the spec starts it over.
	JobCancelled = "cancelled"
)

// PartialAggregates is the mid-run view of a job's streaming aggregates,
// derived from the exact accumulators over the units folded so far. It is
// informational — the byte-stable artefact is the final Report.
type PartialAggregates struct {
	TaskCycles   shard.Summary `json:"task_cycles"`
	BusHeld      shard.Summary `json:"bus_held"`
	FairnessJain float64       `json:"fairness_jain"`
}

// JobStatus is the job API's resource representation: POST /v1/jobs and
// GET /v1/jobs/{id} both return it.
type JobStatus struct {
	// ID is the job id: the truncated SHA-256 of the canonical campaign
	// spec, so resubmitting an identical spec addresses the same job
	// (idempotent POST) instead of double-running the campaign.
	ID string `json:"id"`
	// Name is the campaign's label.
	Name string `json:"name,omitempty"`
	// Campaign is the campaign content digest (checkpoint identity — name
	// and shard count excluded, see shard.CampaignSpec.Digest).
	Campaign string `json:"campaign"`
	// State is one of JobRunning, JobDone, JobFailed, JobCancelled.
	State string `json:"state"`
	// Error carries the failure cause when State is JobFailed.
	Error string `json:"error,omitempty"`
	// Units and UnitsDone report progress over the campaign's unit space.
	Units     int64 `json:"units"`
	UnitsDone int64 `json:"units_done"`
	// Shards is the campaign's shard count.
	Shards int `json:"shards"`
	// Partial is the streaming-aggregate snapshot while running.
	Partial *PartialAggregates `json:"partial,omitempty"`
	// Report is the final merged output once State is JobDone.
	Report *shard.Report `json:"report,omitempty"`
}

// job is one campaign job: the compiled campaign, its checkpoint store,
// and the driver goroutine's state.
type job struct {
	id    string
	camp  *shard.Campaign
	store *shard.Store
	dir   string

	cancel chan struct{} // closed to stop the driver at a chunk boundary
	done   chan struct{} // closed when the driver exits

	mu      sync.Mutex
	state   string
	errText string
	report  *shard.Report
	// Progress and partial-aggregate view. base* hold the contributions of
	// fully processed shards (plus any resumed prefix); cur* add the active
	// shard's running state on top. Shard order is unit order and the
	// accumulators merge exactly, so the partial view is the true prefix
	// fold, not an approximation.
	doneUnits          int64
	baseDone           int64
	baseTask, baseHeld stats.Exact
	curTask, curHeld   stats.Exact
}

// observe updates the job's progress view from the active shard's
// aggregate state.
func (j *job) observe(a *shard.Agg) {
	j.mu.Lock()
	j.doneUnits = j.baseDone + a.N
	t, h := j.baseTask, j.baseHeld
	t.Merge(a.TaskCycles)
	h.Merge(a.BusHeld)
	j.curTask, j.curHeld = t, h
	j.mu.Unlock()
}

// retire folds a completed shard's aggregate into the base view.
func (j *job) retire(a *shard.Agg) {
	j.mu.Lock()
	j.baseDone += a.N
	j.baseTask.Merge(a.TaskCycles)
	j.baseHeld.Merge(a.BusHeld)
	j.doneUnits = j.baseDone
	j.curTask, j.curHeld = j.baseTask, j.baseHeld
	j.mu.Unlock()
}

func (j *job) isCancelled() bool {
	select {
	case <-j.cancel:
		return true
	default:
		return false
	}
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		Name:      j.camp.Spec.Name,
		Campaign:  j.camp.Digest(),
		State:     j.state,
		Error:     j.errText,
		Units:     j.camp.Units(),
		UnitsDone: j.doneUnits,
		Shards:    j.camp.Plan.Shards,
		Report:    j.report,
	}
	if st.State == JobRunning && j.doneUnits > 0 {
		st.Partial = &PartialAggregates{
			TaskCycles:   shard.Summarize(j.curTask),
			BusHeld:      shard.Summarize(j.curHeld),
			FairnessJain: j.curHeld.Jain(),
		}
	}
	return st
}

// jobEngine owns the daemon's campaign jobs: the on-disk job store (one
// directory per job: spec.json + ckpt/), the in-memory index, and one
// driver goroutine per active job. Drivers execute each chunk with
// campaign.Map on the server's shared campaign.Pool, so interactive /v1/run
// traffic and batch jobs compete for the same workers under the same
// admission control — a job holds at most Workers queue slots and yields
// after every unit instead of spawning a second execution engine.
type jobEngine struct {
	dir             string
	pool            *campaign.Pool[*sim.Runner]
	checkpointEvery int64
	chunkTimeout    time.Duration
	clock           fault.Clock
	fs              fault.FS
	unitsDone       func(int64)               // stats counter hook; may be nil
	onQuarantine    func(path, reason string) // quarantine observer; may be nil
	onDeadline      func()                    // chunk-deadline counter hook; may be nil

	mu   sync.Mutex
	jobs map[string]*job
	wg   sync.WaitGroup
}

// jobEngineConfig bundles newJobEngine's wiring.
type jobEngineConfig struct {
	dir             string
	pool            *campaign.Pool[*sim.Runner]
	checkpointEvery int64
	chunkTimeout    time.Duration
	clock           fault.Clock
	fs              fault.FS
	unitsDone       func(int64)
	onQuarantine    func(path, reason string)
	onDeadline      func()
}

func newJobEngine(cfg jobEngineConfig) *jobEngine {
	if cfg.checkpointEvery <= 0 {
		cfg.checkpointEvery = shard.DefaultCheckpointEvery
	}
	if cfg.clock == nil {
		cfg.clock = fault.WallClock{}
	}
	if cfg.fs == nil {
		cfg.fs = fault.OS{}
	}
	return &jobEngine{
		dir: cfg.dir, pool: cfg.pool,
		checkpointEvery: cfg.checkpointEvery, chunkTimeout: cfg.chunkTimeout,
		clock: cfg.clock, fs: cfg.fs,
		unitsDone: cfg.unitsDone, onQuarantine: cfg.onQuarantine, onDeadline: cfg.onDeadline,
		jobs: map[string]*job{},
	}
}

// openStore opens a job's checkpoint store through the engine's filesystem
// with the quarantine observer attached.
func (e *jobEngine) openStore(dir string, m shard.Manifest) (*shard.Store, error) {
	return shard.OpenWith(dir, m, shard.StoreOptions{FS: e.fs, OnQuarantine: e.onQuarantine})
}

// jobID derives the job id from the canonical spec bytes: idempotent POST
// by content addressing. Unlike the campaign digest it covers the whole
// spec (name and shard plan included), so a relabelled or resharded
// submission is its own job resource — though its checkpoints, keyed by
// the campaign digest, would be interchangeable.
func jobID(spec shard.CampaignSpec) (string, error) {
	data, err := spec.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

// submit registers (or finds) the job for the compiled campaign and
// returns its status. created reports whether a new job was started.
func (e *jobEngine) submit(camp *shard.Campaign) (JobStatus, bool, error) {
	spec := camp.Spec
	id, err := jobID(spec)
	if err != nil {
		return JobStatus{}, false, err
	}
	e.mu.Lock()
	if j, ok := e.jobs[id]; ok {
		e.mu.Unlock()
		return j.status(), false, nil
	}
	e.mu.Unlock()

	dir := filepath.Join(e.dir, id)
	if err := e.fs.MkdirAll(dir, 0o755); err != nil {
		return JobStatus{}, false, err
	}
	specBytes, err := spec.Encode()
	if err != nil {
		return JobStatus{}, false, err
	}
	if err := e.fs.WriteFile(filepath.Join(dir, "spec.json"), specBytes, 0o644); err != nil {
		return JobStatus{}, false, err
	}
	store, err := e.openStore(filepath.Join(dir, "ckpt"), camp.Manifest())
	if err != nil {
		return JobStatus{}, false, err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if j, ok := e.jobs[id]; ok { // racing identical submissions
		return j.status(), false, nil
	}
	j := e.start(id, camp, store, dir)
	return j.status(), true, nil
}

// start registers the job and launches its driver. e.mu must be held.
func (e *jobEngine) start(id string, camp *shard.Campaign, store *shard.Store, dir string) *job {
	j := &job{
		id: id, camp: camp, store: store, dir: dir,
		cancel: make(chan struct{}), done: make(chan struct{}),
		state: JobRunning,
	}
	e.jobs[id] = j
	e.wg.Add(1)
	go e.drive(j)
	return j
}

// get returns a job's status by id.
func (e *jobEngine) get(id string) (JobStatus, bool) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// list returns every job's status, sorted by id.
func (e *jobEngine) list() []JobStatus {
	e.mu.Lock()
	out := make([]JobStatus, 0, len(e.jobs))
	for _, j := range e.jobs {
		out = append(out, j.status())
	}
	e.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// remove cancels a job and deletes its directory. The driver notices the
// cancel at its next chunk boundary; directory removal waits for it in the
// background so an in-flight chunk never writes into a half-deleted store.
func (e *jobEngine) remove(id string) (JobStatus, bool) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if ok {
		delete(e.jobs, id)
	}
	e.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	j.mu.Lock()
	if j.state == JobRunning {
		j.state = JobCancelled
		close(j.cancel)
	}
	j.mu.Unlock()
	st := j.status()
	go func() {
		<-j.done
		_ = e.fs.RemoveAll(j.dir)
	}()
	return st, true
}

// counts reports (total, running) for /v1/stats.
func (e *jobEngine) counts() (total, running int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, j := range e.jobs {
		j.mu.Lock()
		if j.state == JobRunning {
			running++
		}
		j.mu.Unlock()
	}
	return len(e.jobs), running
}

// close stops every driver at its next chunk boundary and waits for them.
// In-memory state is discarded, but running jobs keep their spec and
// checkpoint store on disk, so a restarted daemon's load resumes them —
// the jobs-survive-restart guarantee.
func (e *jobEngine) close() {
	e.mu.Lock()
	for _, j := range e.jobs {
		select {
		case <-j.cancel:
		default:
			close(j.cancel)
		}
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// load scans the job directory and re-registers every stored job: complete
// ones surface as JobDone with their report re-derived from the checkpoint
// store; incomplete ones get a driver and resume from their last
// checkpoints.
func (e *jobEngine) load() error {
	entries, err := e.fs.ReadDir(e.dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		id := ent.Name()
		dir := filepath.Join(e.dir, id)
		data, err := e.fs.ReadFile(filepath.Join(dir, "spec.json"))
		if err != nil {
			return fmt.Errorf("job %s: %w", id, err)
		}
		spec, err := shard.ParseCampaign(data)
		if err != nil {
			return fmt.Errorf("job %s: %w", id, err)
		}
		want, err := jobID(spec)
		if err != nil {
			return fmt.Errorf("job %s: %w", id, err)
		}
		if want != id {
			return fmt.Errorf("job %s: stored spec hashes to %s; job directory corrupt", id, want)
		}
		camp, err := spec.Compile()
		if err != nil {
			return fmt.Errorf("job %s: %w", id, err)
		}
		store, err := e.openStore(filepath.Join(dir, "ckpt"), camp.Manifest())
		if err != nil {
			return fmt.Errorf("job %s: %w", id, err)
		}
		e.mu.Lock()
		if rep, err := shard.MergeStore(camp, store); err == nil {
			// Complete on disk: no driver needed, just the final report.
			j := &job{id: id, camp: camp, store: store, dir: dir,
				cancel: make(chan struct{}), done: make(chan struct{}),
				state: JobDone, report: &rep, doneUnits: camp.Units()}
			close(j.done)
			e.jobs[id] = j
		} else {
			e.start(id, camp, store, dir)
		}
		e.mu.Unlock()
	}
	return nil
}

// drive is the job's driver goroutine: shards in order, chunk by chunk
// through the shared pool, checkpoint after every chunk, stop at a chunk
// boundary on cancel, merge and publish the report at the end.
func (e *jobEngine) drive(j *job) {
	defer e.wg.Done()
	defer close(j.done)
	err := e.runJob(j)
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state != JobRunning:
		// Cancelled via remove(); state already set.
	case j.isCancelled():
		// Daemon shutdown: leave the job running on disk (a pool-closed
		// error mid-chunk is part of the same shutdown); a restart resumes
		// it from its checkpoints.
	case err != nil:
		j.state, j.errText = JobFailed, err.Error()
	default:
		j.state = JobDone
	}
}

func (e *jobEngine) runJob(j *job) error {
	for i := 0; i < j.camp.Plan.Shards; i++ {
		lo, hi, err := j.camp.Plan.Range(i)
		if err != nil {
			return err
		}
		agg, ok, err := j.store.LoadShard(i)
		if err != nil {
			return err
		}
		if !ok {
			if agg, err = shard.NewAgg(lo, j.camp.Block()); err != nil {
				return err
			}
		} else if agg.Lo != lo || agg.Lo+agg.N > hi {
			return fmt.Errorf("shard %d checkpoint covers [%d,+%d) of [%d,%d)", i, agg.Lo, agg.N, lo, hi)
		}
		j.observe(agg) // surface a resumed prefix in the progress view
		for agg.Lo+agg.N < hi {
			if j.isCancelled() {
				return nil
			}
			n := min(e.checkpointEvery, hi-(agg.Lo+agg.N))
			if err := e.runChunk(j, agg, n); err != nil {
				return err
			}
			if err := j.store.SaveShard(i, agg); err != nil {
				return err
			}
			j.observe(agg)
			if e.unitsDone != nil {
				e.unitsDone(n)
			}
		}
		j.retire(agg)
	}
	if j.isCancelled() {
		return nil
	}
	rep, err := shard.MergeStore(j.camp, j.store)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.report = &rep
	j.mu.Unlock()
	return nil
}

// runChunk executes units [agg.Lo+agg.N, agg.Lo+agg.N+n) on the shared
// pool through campaign.Map and folds the results into agg in unit order.
// Map holds at most Workers queue slots and its drains yield to queued
// work after every unit, so interactive /v1/run traffic keeps its admission
// control while a job runs; the fold order is the unit order regardless of
// which worker ran what, so the aggregate state is identical to the
// single-process reference.
//
// Map runs in a helper goroutine raced against the chunk deadline. On
// timeout the chunk fails with ErrChunkDeadline, units not yet dispatched
// return without simulating, and the helper keeps sole ownership of the
// results — agg (and the caller) never observe a partially-written chunk.
func (e *jobEngine) runChunk(j *job, agg *shard.Agg, n int64) error {
	lo := agg.Lo + agg.N
	var expired atomic.Bool
	type outcome struct {
		results []sim.Result
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		results, err := campaign.Map(e.pool, int(n), nil, func(rn *sim.Runner, k int) (sim.Result, error) {
			if expired.Load() {
				return sim.Result{}, ErrChunkDeadline
			}
			u := lo + int64(k)
			scen, seed, err := j.camp.Unit(u)
			if err != nil {
				return sim.Result{}, err
			}
			res, err := j.camp.Scenarios[scen].RunOn(rn, seed, "", nil)
			if err != nil {
				return sim.Result{}, fmt.Errorf("unit %d: %w", u, err)
			}
			return res, nil
		})
		done <- outcome{results, err}
	}()

	var deadline <-chan time.Time
	if e.chunkTimeout > 0 {
		deadline = e.clock.After(e.chunkTimeout)
	}
	select {
	case o := <-done:
		if o.err != nil {
			return o.err
		}
		for _, res := range o.results {
			agg.Add(res)
		}
		return nil
	case <-deadline:
		expired.Store(true)
		if e.onDeadline != nil {
			e.onDeadline()
		}
		return fmt.Errorf("chunk [%d,+%d) after %v: %w", lo, n, e.chunkTimeout, ErrChunkDeadline)
	}
}
