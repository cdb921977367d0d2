package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"creditbus/internal/campaign"
	"creditbus/internal/fault"
	"creditbus/internal/scenario"
	"creditbus/internal/shard"
	"creditbus/internal/stats"
)

// ErrChunkDeadline — a job chunk (queueing, execution and checkpoint save
// of up to checkpointEvery units) exceeded the configured chunk deadline.
// The job fails typed; its checkpoints persist and a restart resumes it.
var ErrChunkDeadline = errors.New("service: job chunk deadline exceeded")

// errJobCorrupt marks a stored job directory load cannot resume for a
// reason other than I/O: its spec.json is missing, does not parse, does not
// hash to the directory's name or no longer compiles, or its checkpoint
// manifest names another computation. Load quarantines such a directory.
var errJobCorrupt = errors.New("job directory corrupt")

// errEngineClosed refuses a submission or removal once the engine closed.
var errEngineClosed = errors.New("service: job engine closed")

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

	// ctx is the job's context: DELETE and daemon shutdown cancel it with
	// no cause, the chunk watchdog with one wrapping ErrChunkDeadline.
	ctx    context.Context
	cancel context.CancelCauseFunc
	done   chan struct{} // closed when the driver exits (at once for a done job)

	mu      sync.Mutex
	state   string
	errText string
	report  *shard.Report
	shards  []shardProgress // in shard order, which is unit order
}

// shardProgress is one shard's units and TaskCycles/BusHeld moments at its
// last observation. The accumulators merge exactly, so the fold status
// takes over all shards is the true prefix state, not an approximation.
type shardProgress struct {
	units      int64
	task, held stats.Exact
}

// observe records shard i's aggregate state as its progress entry.
func (j *job) observe(i int, a *shard.Agg) {
	j.mu.Lock()
	j.shards[i] = shardProgress{units: a.N, task: a.TaskCycles, held: a.BusHeld}
	j.mu.Unlock()
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	var fold shardProgress
	for _, p := range j.shards {
		fold.units += p.units
		fold.task.Merge(p.task)
		fold.held.Merge(p.held)
	}
	st := JobStatus{
		ID:        j.id,
		Name:      j.camp.Spec.Name,
		Campaign:  j.camp.Digest(),
		State:     j.state,
		Error:     j.errText,
		Units:     j.camp.Units(),
		UnitsDone: fold.units,
		Shards:    j.camp.Plan.Shards,
		Report:    j.report,
	}
	switch {
	case st.State == JobDone:
		st.UnitsDone = st.Units // a job registered done observed no shard
	case st.State == JobRunning && fold.units > 0:
		st.Partial = &PartialAggregates{
			TaskCycles:   shard.Summarize(fold.task),
			BusHeld:      shard.Summarize(fold.held),
			FairnessJain: fold.held.Jain(),
		}
	}
	return st
}

// jobEngine owns the daemon's campaign jobs: the on-disk job store (one
// directory per job: spec.json + ckpt/), the in-memory index, and one
// drive goroutine per active job, which runs each shard through
// shard.Runner.RunShardOn on the server's shared campaign.Pool, so
// interactive /v1/run traffic and batch jobs compete for the same workers
// under the same admission control — a job holds at most Workers queue
// slots and yields after every unit instead of spawning a second
// execution engine.
type jobEngine struct {
	dir             string
	pool            *campaign.Pool[*scenario.Worker]
	checkpointEvery int64 // ≤ 0: shard.DefaultCheckpointEvery
	chunkTimeout    time.Duration
	clock           fault.Clock
	fs              fault.FS
	unitsDone       func(int64)               // stats counter hook
	onQuarantine    func(path, reason string) // quarantine observer
	onDeadline      func()                    // chunk-deadline counter hook

	mu     sync.Mutex
	jobs   map[string]*job
	closed bool           // set by close; submit and remove refuse from then on
	wg     sync.WaitGroup // drivers, watchdogs, removals; Add from zero only under mu while !closed
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
// returns its status. created reports whether a new job was registered.
func (e *jobEngine) submit(camp *shard.Campaign) (JobStatus, bool, error) {
	spec := camp.Spec
	id, err := jobID(spec)
	if err != nil {
		return JobStatus{}, false, err
	}
	if st, ok := e.get(id); ok {
		return st, false, nil
	}
	dir := filepath.Join(e.dir, id)
	if err := e.fs.MkdirAll(dir, 0o755); err != nil {
		return JobStatus{}, false, err
	}
	specBytes, err := spec.Encode()
	if err != nil {
		return JobStatus{}, false, err
	}
	if err := fault.WriteAtomic(e.fs, filepath.Join(dir, "spec.json"), specBytes, false); err != nil {
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
	if e.closed {
		return JobStatus{}, false, errEngineClosed
	}
	return e.register(id, camp, store, dir).status(), true, nil
}

// register is the one registration path, for submit and load alike: a store
// that merges completely is a done job with its report; anything else gets
// a driver, which resumes from the checkpoints. e.mu must be held.
func (e *jobEngine) register(id string, camp *shard.Campaign, store *shard.Store, dir string) *job {
	ctx, cancel := context.WithCancelCause(context.Background())
	j := &job{id: id, camp: camp, store: store, dir: dir, ctx: ctx, cancel: cancel,
		done: make(chan struct{}), state: JobRunning, shards: make([]shardProgress, camp.Plan.Shards)}
	e.jobs[id] = j
	if rep, err := shard.MergeStore(camp, store); err == nil {
		j.state, j.report = JobDone, &rep
		close(j.done)
		return j
	}
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

// remove cancels a job (a running one stops mid-chunk without
// checkpointing it), waits for its driver, removes its directory and only
// then forgets the id: a submission of the same spec meanwhile finds the
// job registered instead of creating one in the directory being removed.
// ok is false for an unknown id; a failed removal keeps the job registered.
func (e *jobEngine) remove(id string) (st JobStatus, ok bool, err error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	switch {
	case ok && e.closed:
		err = errEngineClosed
	case ok:
		e.wg.Add(1) // close waits for the removal
	}
	e.mu.Unlock()
	if !ok || err != nil {
		return JobStatus{}, ok, err
	}
	defer e.wg.Done()
	j.mu.Lock()
	if j.state == JobRunning {
		j.state = JobCancelled
	}
	j.mu.Unlock()
	j.cancel(nil)
	<-j.done
	if err := e.fs.RemoveAll(j.dir); err != nil {
		return JobStatus{}, true, err
	}
	e.mu.Lock()
	if e.jobs[id] == j { // not yet forgotten by a concurrent DELETE
		delete(e.jobs, id)
	}
	e.mu.Unlock()
	return j.status(), true, nil
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

// close stops every running job mid-chunk and waits for its drive
// goroutine and for every removal in progress. In-memory state is
// discarded, but running jobs keep their spec and checkpoint store on disk
// (the abandoned chunk is not checkpointed), so a restarted daemon's load
// resumes them — the jobs-survive-restart guarantee.
func (e *jobEngine) close() {
	e.mu.Lock()
	e.closed = true
	for _, j := range e.jobs {
		j.cancel(nil)
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// load scans the job directory and registers every stored job: complete
// ones surface as JobDone, incomplete ones resume from their last
// checkpoints. A directory that cannot be resumed for a reason other than
// I/O (errJobCorrupt) is quarantined through fault.Quarantine, reported to
// onQuarantine and skipped, as are earlier quarantines; an I/O error fails
// the load, so a transient disk error never quarantines a good job.
func (e *jobEngine) load() error {
	entries, err := e.fs.ReadDir(e.dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.IsDir() || strings.Contains(ent.Name(), ".quarantine-") {
			continue
		}
		id := ent.Name()
		dir := filepath.Join(e.dir, id)
		camp, store, err := e.loadJob(dir, id)
		if errors.Is(err, errJobCorrupt) {
			if _, qerr := fault.Quarantine(e.fs, dir); qerr != nil {
				return fmt.Errorf("job %s: %w", id, qerr)
			}
			e.onQuarantine(dir, err.Error())
			continue
		}
		if err != nil {
			return fmt.Errorf("job %s: %w", id, err)
		}
		e.mu.Lock()
		e.register(id, camp, store, dir)
		e.mu.Unlock()
	}
	return nil
}

// loadJob reads a stored job's spec.json, compiles it and opens its
// checkpoint store. Every reason the directory cannot be resumed wraps
// errJobCorrupt; any other error is I/O.
func (e *jobEngine) loadJob(dir, id string) (*shard.Campaign, *shard.Store, error) {
	corrupt := func(err error) (*shard.Campaign, *shard.Store, error) {
		return nil, nil, fmt.Errorf("%w: %v", errJobCorrupt, err)
	}
	data, err := e.fs.ReadFile(filepath.Join(dir, "spec.json"))
	if errors.Is(err, os.ErrNotExist) {
		return corrupt(err)
	}
	if err != nil {
		return nil, nil, err
	}
	spec, err := shard.ParseCampaign(data)
	if err != nil {
		return corrupt(err)
	}
	want, err := jobID(spec)
	if err != nil {
		return corrupt(err)
	}
	if want != id {
		return corrupt(fmt.Errorf("stored spec hashes to %s", want))
	}
	camp, err := spec.Compile()
	if err != nil {
		return corrupt(err)
	}
	store, err := e.openStore(filepath.Join(dir, "ckpt"), camp.Manifest())
	if errors.Is(err, shard.ErrManifestMismatch) {
		return corrupt(err)
	}
	if err != nil {
		return nil, nil, err
	}
	return camp, store, nil
}

// drive is the job's goroutine: shards in order through
// shard.Runner.RunShardOn on the shared pool (checkpoint after every
// chunk), stop mid-chunk when the job's context ends, merge and publish
// the report at the end.
func (e *jobEngine) drive(j *job) {
	defer e.wg.Done()
	defer close(j.done)
	err := e.runJob(j)
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state != JobRunning:
		// Cancelled via remove(); state already set.
	case errors.Is(context.Cause(j.ctx), context.Canceled):
		// Daemon shutdown: leave the job running on disk; a restart
		// resumes it from its checkpoints.
	case err != nil:
		j.state, j.errText = JobFailed, err.Error()
	default:
		j.state = JobDone
	}
}

func (e *jobEngine) runJob(j *job) error {
	beat := func() {}
	if e.chunkTimeout > 0 {
		beats, stop := make(chan struct{}, 1), make(chan struct{})
		defer close(stop)
		e.wg.Add(1)
		go e.watchdog(j, beats, stop)
		beat = func() {
			select {
			case beats <- struct{}{}:
			default: // a beat is already pending
			}
		}
	}
	r := &shard.Runner{Campaign: j.camp, Store: j.store, CheckpointEvery: e.checkpointEvery}
	for i := 0; i < j.camp.Plan.Shards; i++ {
		last := int64(-1) // the shard's units at the previous observation
		if _, _, err := r.RunShardOn(j.ctx, e.pool, i, func(a *shard.Agg) {
			if last >= 0 { // the first observation is the resumed prefix
				e.unitsDone(a.N - last)
			}
			last = a.N
			j.observe(i, a)
			beat()
		}); err != nil {
			return err
		}
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

// watchdog enforces the chunk deadline on a running job: every beat — the
// resume load and every checkpoint — re-arms a JobChunkTimeout timer, and a
// timer that fires counts the deadline and cancels the job's context with
// an error wrapping ErrChunkDeadline. Nothing is armed before the first
// beat. It exits when stop closes.
func (e *jobEngine) watchdog(j *job, beats <-chan struct{}, stop <-chan struct{}) {
	defer e.wg.Done()
	var deadline <-chan time.Time
	for {
		select {
		case <-beats:
			deadline = e.clock.After(e.chunkTimeout)
		case <-deadline:
			e.onDeadline()
			j.cancel(fmt.Errorf("no chunk checkpointed within %v: %w", e.chunkTimeout, ErrChunkDeadline))
			return
		case <-stop:
			return
		}
	}
}
