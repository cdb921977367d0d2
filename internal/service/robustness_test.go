package service

import (
	"bytes"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"creditbus/internal/fault"
	"creditbus/internal/shard"
)

// TestLoadSheddingKeepsControlPlaneResponsive wedges the single run slot and
// asserts: a second /v1/run is refused immediately with overloaded (503),
// while /v1/healthz, GET /v1/jobs and /v1/stats — which bypass the gate —
// keep answering.
func TestLoadSheddingKeepsControlPlaneResponsive(t *testing.T) {
	srv, hs := startServer(t, Options{Workers: 1, MaxConcurrentRuns: 1, JobsDir: t.TempDir()})
	release := make(chan struct{})
	srv.execGate = func() { <-release }

	first := make(chan int, 1)
	go func() {
		code, _, _ := post(t, hs.URL, testSpec("wedged", 1))
		first <- code
	}()
	// Wait until the first handler owns the slot and waits on its flight.
	deadline := time.Now().Add(10 * time.Second)
	for len(srv.runSlots) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never took the run slot")
		}
		time.Sleep(time.Millisecond)
	}

	code, _, body := post(t, hs.URL, testSpec("shed", 2))
	if code != http.StatusServiceUnavailable || !strings.Contains(body, ErrCodeOverloaded) {
		t.Fatalf("saturated gate: code %d body %s", code, body)
	}
	// Control plane stays responsive while the data plane is saturated.
	for _, path := range []string{"/v1/healthz", "/v1/jobs", "/v1/stats"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s while saturated: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s while saturated: %d", path, resp.StatusCode)
		}
	}
	if st := srv.Snapshot(); st.LoadShed != 1 {
		t.Fatalf("load_shed = %d, want 1", st.LoadShed)
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("wedged request finished %d", code)
	}
	// The slot is released; the gate admits again.
	if code, _, _ := post(t, hs.URL, testSpec("after", 3)); code != http.StatusOK {
		t.Fatalf("post-release request refused: %d", code)
	}
}

// TestRunDeadline504 wedges execution under a fake clock, advances past the
// request deadline, and asserts the typed 504 — without a single real-time
// sleep on the deadline path.
func TestRunDeadline504(t *testing.T) {
	clk := fault.NewFakeClock(time.Unix(0, 0))
	srv, hs := startServer(t, Options{Workers: 1, RunTimeout: 5 * time.Second, Clock: clk})
	release := make(chan struct{})
	srv.execGate = func() { <-release }
	defer close(release) // let the wedged execution drain at cleanup

	done := make(chan string, 1)
	go func() {
		code, _, body := post(t, hs.URL, testSpec("slow", 1))
		if code != http.StatusGatewayTimeout {
			done <- body
			return
		}
		done <- ""
	}()
	// The handler arms its deadline before waiting on the flight.
	deadline := time.Now().Add(10 * time.Second)
	for clk.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("run handler never armed its deadline")
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(5 * time.Second)
	if body := <-done; body != "" {
		t.Fatalf("want 504 deadline_exceeded, got: %s", body)
	}
	if st := srv.Snapshot(); st.DeadlineExceeded != 1 {
		t.Fatalf("deadline_exceeded = %d, want 1", st.DeadlineExceeded)
	}
}

// TestJobChunkDeadlineFailsTyped saturates the only worker with a wedged
// interactive run, submits a job whose first chunk therefore cannot finish,
// and advances the fake clock past the chunk deadline: the job must fail
// with the typed chunk-deadline error while its checkpoints stay resumable.
func TestJobChunkDeadlineFailsTyped(t *testing.T) {
	clk := fault.NewFakeClock(time.Unix(0, 0))
	srv, hs := startServer(t, Options{
		Workers: 1, Queue: 8, JobsDir: t.TempDir(),
		JobCheckpointEvery: 4, JobChunkTimeout: 30 * time.Second, Clock: clk,
	})
	release := make(chan struct{})
	srv.execGate = func() { <-release }

	wedged := make(chan int, 1)
	go func() {
		code, _, _ := post(t, hs.URL, testSpec("hog", 1))
		wedged <- code
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Snapshot().Misses < 1 {
		if time.Now().After(deadline) {
			t.Fatal("hog never reached the worker")
		}
		time.Sleep(time.Millisecond)
	}

	code, st, body := postJob(t, hs.URL, jobCampaign("deadline-job", 8))
	if code != http.StatusCreated {
		t.Fatalf("POST job: %d %s", code, body)
	}
	// The driver's first chunk arms the chunk deadline once submissions are
	// in flight behind the wedged worker.
	for clk.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("chunk deadline never armed")
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(30 * time.Second)

	final := waitJob(t, hs.URL, st.ID)
	if final.State != JobFailed || !strings.Contains(final.Error, "chunk deadline") {
		t.Fatalf("job state %q error %q, want failed on chunk deadline", final.State, final.Error)
	}
	if s := srv.Snapshot(); s.DeadlineExceeded != 1 {
		t.Fatalf("deadline_exceeded = %d, want 1", s.DeadlineExceeded)
	}
	close(release)
	<-wedged
}

// TestJobRecoversFromQuarantinedCheckpoint completes a job, corrupts one of
// its shard checkpoints on disk, and reboots the daemon over the same job
// store: load must quarantine the bad file, restart the driver, and
// converge to a report with the original result hash — corrupted
// checkpoints are recovered from, never merged.
func TestJobRecoversFromQuarantinedCheckpoint(t *testing.T) {
	jobsDir := t.TempDir()
	spec := jobCampaign("quarantine-recover", 24)

	srv1, err := New(Options{Workers: 2, JobsDir: jobsDir, JobCheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	st1, created, err := srv1.jobs.submit(compileJob(t, spec))
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		got, ok := srv1.jobs.get(st1.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if got.State == JobDone {
			st1 = got
			break
		}
		if got.State != JobRunning || time.Now().After(deadline) {
			t.Fatalf("job did not complete: %+v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	srv1.Close()
	wantHash := st1.Report.ResultHash

	// Corrupt the first shard's primary checkpoint.
	ckpt := filepath.Join(jobsDir, st1.ID, "ckpt", "shard-0000.json")
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Options{Workers: 2, JobsDir: jobsDir, JobCheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	for {
		got, ok := srv2.jobs.get(st1.ID)
		if !ok {
			t.Fatal("job not reloaded")
		}
		if got.State == JobDone {
			if got.Report == nil || got.Report.ResultHash != wantHash {
				t.Fatalf("recovered report diverges: %+v", got.Report)
			}
			break
		}
		if got.State != JobRunning || time.Now().After(deadline) {
			t.Fatalf("job did not recover: %+v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if q := srv2.Snapshot().Quarantines; q < 1 {
		t.Fatalf("quarantines = %d, want >= 1", q)
	}
	if _, err := os.Stat(ckpt + ".quarantine-0"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
}

// TestJobStoreFaultSurfacesTyped submits a job through an injected
// filesystem that fails the first checkpoint write with ENOSPC and asserts
// the job fails with the typed error — and that resubmitting after the
// space recovers (a daemon restart over the same store) completes.
func TestJobStoreFaultSurfacesTyped(t *testing.T) {
	jobsDir := t.TempDir()
	spec := jobCampaign("enospc-job", 16)

	// Census pass on a pristine copy of the workload to find a write op
	// inside SaveShard: use a generous op index hit by trial — instead,
	// fault the very first Sync, which only the checkpoint path performs.
	var sync int64
	census := fault.NewInjector(fault.OS{}, fault.Plan{})
	census.Log = func(n int64, op fault.Op, path string) {
		if sync == 0 && op == fault.OpSync && strings.Contains(path, "shard-") {
			sync = n
		}
	}
	srv0, err := New(Options{Workers: 2, JobsDir: t.TempDir(), JobCheckpointEvery: 4, FS: census})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv0.jobs.submit(compileJob(t, spec)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	id, _ := jobID(spec)
	for {
		got, _ := srv0.jobs.get(id)
		if got.State == JobDone {
			break
		}
		if got.State != JobRunning || time.Now().After(deadline) {
			t.Fatalf("census job: %+v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	srv0.Close()
	if sync == 0 {
		t.Fatal("census never saw a checkpoint fsync")
	}

	in := fault.NewInjector(fault.OS{}, fault.Plan{Op: sync, Kind: fault.KindENOSPC})
	srv1, err := New(Options{Workers: 2, JobsDir: jobsDir, JobCheckpointEvery: 4, FS: in})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv1.jobs.submit(compileJob(t, spec)); err != nil {
		t.Fatal(err)
	}
	for {
		got, _ := srv1.jobs.get(id)
		if got.State == JobFailed {
			if !strings.Contains(got.Error, fault.ErrNoSpace.Error()) {
				t.Fatalf("job error not typed: %q", got.Error)
			}
			break
		}
		if got.State == JobDone || time.Now().After(deadline) {
			t.Fatalf("ENOSPC job: %+v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	srv1.Close()

	// "Space freed, daemon restarted": the same store resumes to done.
	srv2, err := New(Options{Workers: 2, JobsDir: jobsDir, JobCheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	for {
		got, ok := srv2.jobs.get(id)
		if !ok {
			t.Fatal("job not reloaded after restart")
		}
		if got.State == JobDone {
			break
		}
		if got.State != JobRunning || time.Now().After(deadline) {
			t.Fatalf("job did not resume after ENOSPC: %+v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChunkDeadlineErrTyped pins the sentinel into the public error chain.
func TestChunkDeadlineErrTyped(t *testing.T) {
	err := errors.New("wrap: " + ErrChunkDeadline.Error())
	if errors.Is(err, ErrChunkDeadline) {
		t.Fatal("string lookalike must not satisfy errors.Is")
	}
	if !errors.Is(ErrChunkDeadline, ErrChunkDeadline) {
		t.Fatal("sentinel identity")
	}
}

// awaitDone polls a job on the engine until it leaves JobRunning and
// requires it to finish done with the report bytes want.
func awaitDone(t *testing.T, srv *Server, id string, want []byte) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, ok := srv.jobs.get(id)
		if !ok {
			t.Fatalf("job %s not registered", id)
		}
		if st.State == JobDone {
			got, err := st.Report.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("job %s report differs from the reference", id)
			}
			return
		}
		if st.State != JobRunning || time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// referenceReport returns the single-process reference bytes of a job spec.
func referenceReport(t *testing.T, spec shard.CampaignSpec) []byte {
	t.Helper()
	rep, err := shard.Reference(compileJob(t, spec), 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestJobSubmitCrashPointSweep crashes (and tears) a job submission at
// every filesystem operation it performs — from the first operation after
// New's scan of the jobs directory to the last one before registration
// first reads a shard file — then restarts the daemon on the real
// filesystem over whatever the crash left. The restart must succeed, and
// the job must be either absent or resume to the single-process reference
// bytes.
func TestJobSubmitCrashPointSweep(t *testing.T) {
	spec := jobCampaign("submit-crash", 24)
	id, err := jobID(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceReport(t, spec)

	// Census: the submission's operations on a fresh jobs directory.
	census := fault.NewInjector(fault.OS{}, fault.Plan{})
	var shardAt int64
	census.Log = func(n int64, op fault.Op, path string) {
		if shardAt == 0 && strings.Contains(filepath.Base(path), "shard-") {
			shardAt = n
		}
	}
	srv, err := New(Options{Workers: 1, JobsDir: t.TempDir(), FS: census})
	if err != nil {
		t.Fatal(err)
	}
	first := census.Ops() + 1
	if _, _, err := srv.jobs.submit(compileJob(t, spec)); err != nil {
		t.Fatal(err)
	}
	awaitDone(t, srv, id, want)
	srv.Close()
	last := shardAt - 1
	if shardAt == 0 || last < first {
		t.Fatalf("census: submission ops [%d, %d]", first, last)
	}
	t.Logf("submission sweep: ops %d..%d × {crash, torn}", first, last)

	for _, kind := range []fault.Kind{fault.KindCrash, fault.KindTorn} {
		for k := first; k <= last; k++ {
			dir := t.TempDir()
			in := fault.NewInjector(fault.OS{}, fault.Plan{Op: k, Kind: kind, Seed: uint64(k) * 0x9e3779b9})
			srv, err := New(Options{Workers: 1, JobsDir: dir, FS: in})
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = srv.jobs.submit(compileJob(t, spec))
			srv.Close()
			if !errors.Is(err, fault.ErrCrashed) {
				t.Fatalf("%v at op %d: submit err = %v", kind, k, err)
			}
			restarted, err := New(Options{Workers: 2, JobsDir: dir, JobCheckpointEvery: 8})
			if err != nil {
				t.Fatalf("%v at op %d: restart: %v", kind, k, err)
			}
			if _, ok := restarted.jobs.get(id); ok {
				awaitDone(t, restarted, id, want)
			}
			restarted.Close()
		}
	}
}

// TestJobLoadQuarantinesTornSpec tears one job's spec.json and restarts the
// daemon: start-up must succeed, the torn job directory is quarantined (and
// counted) instead of registered, and an intact job beside it resumes to
// the reference bytes.
func TestJobLoadQuarantinesTornSpec(t *testing.T) {
	dir := t.TempDir()
	torn, intact := jobCampaign("torn", 24), jobCampaign("intact", 36)
	ids := make([]string, 2)
	for i, spec := range []shard.CampaignSpec{torn, intact} {
		id, err := jobID(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeSpecDir(filepath.Join(dir, id), spec); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	path := filepath.Join(dir, ids[0], "spec.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := New(Options{Workers: 2, JobsDir: dir, JobCheckpointEvery: 8})
	if err != nil {
		t.Fatalf("start-up over a torn job: %v", err)
	}
	defer srv.Close()
	if q := srv.Snapshot().Quarantines; q != 1 {
		t.Fatalf("quarantines = %d, want 1", q)
	}
	if _, err := os.Stat(filepath.Join(dir, ids[0]+".quarantine-0")); err != nil {
		t.Fatalf("torn job not quarantined: %v", err)
	}
	if _, ok := srv.jobs.get(ids[0]); ok {
		t.Fatal("torn job registered")
	}
	awaitDone(t, srv, ids[1], referenceReport(t, intact))
}
