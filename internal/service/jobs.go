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

	mu   sync.Mutex
	jobs map[string]*job
	wg   sync.WaitGroup
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

// newJob builds a running job's in-memory state.
func newJob(id string, camp *shard.Campaign, store *shard.Store, dir string) *job {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &job{id: id, camp: camp, store: store, dir: dir,
		ctx: ctx, cancel: cancel, done: make(chan struct{}), state: JobRunning}
}

// start registers the job and launches its driver. e.mu must be held.
func (e *jobEngine) start(id string, camp *shard.Campaign, store *shard.Store, dir string) *job {
	j := newJob(id, camp, store, dir)
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

// remove cancels a job and deletes its directory. The job stops mid-chunk
// without checkpointing it; directory removal waits for its drive
// goroutine in the background so a checkpoint save in progress never
// writes into a half-deleted store.
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
		j.cancel(nil)
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

// close stops every running job mid-chunk and waits for its drive
// goroutine. In-memory state is discarded, but running jobs keep their
// spec and checkpoint store on disk (the abandoned chunk is not
// checkpointed), so a restarted daemon's load resumes them — the
// jobs-survive-restart guarantee.
func (e *jobEngine) close() {
	e.mu.Lock()
	for _, j := range e.jobs {
		j.cancel(nil)
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
			j := newJob(id, camp, store, dir)
			j.state, j.report, j.doneUnits = JobDone, &rep, camp.Units()
			close(j.done)
			e.jobs[id] = j
		} else {
			e.start(id, camp, store, dir)
		}
		e.mu.Unlock()
	}
	return nil
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
		agg, _, err := r.RunShardOn(j.ctx, e.pool, i, func(a *shard.Agg) {
			if last >= 0 { // the first observation is the resumed prefix
				e.unitsDone(a.N - last)
			}
			last = a.N
			j.observe(a)
			beat()
		})
		if err != nil {
			return err
		}
		j.retire(agg)
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
