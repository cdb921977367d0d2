package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"creditbus/internal/scenario"
	"creditbus/internal/shard"
)

// jobCampaign builds a small two-scenario campaign spec whose units are
// cheap enough for differential tests.
func jobCampaign(name string, units int) shard.CampaignSpec {
	a := units * 2 / 3
	fast := func(n string, runs int) scenario.Spec {
		return scenario.Spec{
			Name:      n,
			Cores:     2,
			Run:       scenario.RunIsolation,
			Workloads: []scenario.Workload{{Core: 0, Name: "canrdr", Ops: 8}},
			Seeds:     scenario.Seeds{Base: 1, Runs: runs},
		}
	}
	return shard.CampaignSpec{
		Name:      name,
		Scenarios: []scenario.Spec{fast(name+"-a", a), fast(name+"-b", units-a)},
		Shards:    2,
	}
}

// compileJob compiles a campaign spec for a direct jobEngine.submit, as
// the job handler does.
func compileJob(t *testing.T, spec shard.CampaignSpec) *shard.Campaign {
	t.Helper()
	camp, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return camp
}

// postJob submits a campaign spec to the job API.
func postJob(t *testing.T, url string, spec shard.CampaignSpec) (int, JobStatus, string) {
	t.Helper()
	data, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("bad job response: %v\n%s", err, body)
		}
	}
	return resp.StatusCode, st, string(body)
}

// getJob fetches one job's status.
func getJob(t *testing.T, url, id string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

// waitJob polls until the job leaves JobRunning or the deadline passes.
func waitJob(t *testing.T, url, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, st := getJob(t, url, id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if st.State != JobRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobLifecycle: POST → 201 with a content-addressed id, identical
// resubmission → 200 with the same id (idempotent), completion report
// byte-identical to the single-process shard.Reference, list and stats
// counters consistent, DELETE → gone.
func TestJobLifecycle(t *testing.T) {
	dir := t.TempDir()
	srv, hs := startServer(t, Options{Workers: 2, JobsDir: dir, JobCheckpointEvery: 64})

	spec := jobCampaign("lifecycle", 300)
	code, st, body := postJob(t, hs.URL, spec)
	if code != http.StatusCreated {
		t.Fatalf("POST: status %d\n%s", code, body)
	}
	if st.ID == "" || st.Units != 300 || st.Shards != 2 {
		t.Fatalf("job status: %+v", st)
	}
	// Idempotent resubmission: same id, not created again.
	code2, st2, _ := postJob(t, hs.URL, spec)
	if code2 != http.StatusOK || st2.ID != st.ID {
		t.Fatalf("resubmission: status %d id %s (want 200, %s)", code2, st2.ID, st.ID)
	}

	final := waitJob(t, hs.URL, st.ID)
	if final.State != JobDone || final.Report == nil {
		t.Fatalf("final: %+v", final)
	}
	if final.UnitsDone != 300 {
		t.Fatalf("units done %d, want 300", final.UnitsDone)
	}

	// The job's report must be byte-identical to the single-process
	// reference over the same campaign.
	camp, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := shard.Reference(camp, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := final.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatalf("job report differs from reference\njob: %s\nref: %s", gotBytes, wantBytes)
	}

	// List includes the job; stats count it.
	resp, err := http.Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list: %+v", list)
	}
	if snap := srv.Snapshot(); snap.JobsTotal != 1 || snap.JobsRunning != 0 || snap.JobUnitsDone != 300 {
		t.Fatalf("stats after job: %+v", snap)
	}

	// DELETE removes the resource and its directory.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", dresp.StatusCode)
	}
	if code, _ := getJob(t, hs.URL, st.ID); code != http.StatusNotFound {
		t.Fatalf("deleted job still answers: %d", code)
	}
}

// TestJobRestartResume: a daemon that died mid-campaign left spec.json and
// a partial checkpoint store behind (fabricated here with a budgeted
// shard.Runner — the exact on-disk state an interrupted driver produces).
// A new server must pick the job up, execute only the remainder, and
// produce a report byte-identical to the reference.
func TestJobRestartResume(t *testing.T) {
	dir := t.TempDir()
	spec := jobCampaign("resume", 400)
	id, err := jobID(spec)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	jdir := filepath.Join(dir, id)
	if err := writeSpecDir(jdir, spec); err != nil {
		t.Fatal(err)
	}
	store, err := shard.Open(filepath.Join(jdir, "ckpt"), camp.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	// Run 96 of shard 0's 200 units, then "die".
	partial := &shard.Runner{Campaign: camp, Store: store, Workers: 2, CheckpointEvery: 32, MaxUnits: 96}
	if _, complete, err := partial.RunShard(0); err != nil {
		t.Fatal(err)
	} else if complete {
		t.Fatal("budgeted shard run must stop incomplete")
	}

	srv, hs := startServer(t, Options{Workers: 2, JobsDir: dir, JobCheckpointEvery: 64})
	final := waitJob(t, hs.URL, id)
	if final.State != JobDone || final.Report == nil {
		t.Fatalf("resumed job: %+v", final)
	}
	// Only the remainder ran on this daemon: 400 total − 96 resumed.
	if done := srv.Snapshot().JobUnitsDone; done != 400-96 {
		t.Fatalf("resumed daemon executed %d units, want %d", done, 400-96)
	}
	want, err := shard.Reference(camp, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, _ := want.Encode()
	gotBytes, _ := final.Report.Encode()
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatalf("resumed report differs from reference\njob: %s\nref: %s", gotBytes, wantBytes)
	}

	// A complete job also survives restart: close this daemon, boot another
	// on the same store, and the job surfaces as done with the same report.
	hs.Close()
	srv.Close()
	srv2, err := New(Options{Workers: 2, JobsDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	st, ok := srv2.jobs.get(id)
	if !ok || st.State != JobDone || st.Report == nil {
		t.Fatalf("reloaded job: %+v", st)
	}
	reloaded, _ := st.Report.Encode()
	if !bytes.Equal(wantBytes, reloaded) {
		t.Fatal("reloaded report differs from reference")
	}
}

// TestJobLiveShutdownResume: a server closed while a job is mid-flight
// stops at a chunk boundary; a second server on the same job store resumes
// and finishes with the reference bytes.
func TestJobLiveShutdownResume(t *testing.T) {
	dir := t.TempDir()
	spec := jobCampaign("live-resume", 4000)
	srvA, err := New(Options{Workers: 2, JobsDir: dir, JobCheckpointEvery: 128})
	if err != nil {
		t.Fatal(err)
	}
	stA, created, err := srvA.jobs.submit(compileJob(t, spec))
	if err != nil || !created {
		t.Fatalf("submit: %v created=%v", err, created)
	}
	// Let it make some progress, then shut the daemon down mid-run.
	deadline := time.Now().Add(30 * time.Second)
	for srvA.Snapshot().JobUnitsDone == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	srvA.Close()

	srvB, hs := startServer(t, Options{Workers: 2, JobsDir: dir, JobCheckpointEvery: 128})
	final := waitJob(t, hs.URL, stA.ID)
	if final.State != JobDone || final.Report == nil {
		t.Fatalf("final: %+v", final)
	}
	camp, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := shard.Reference(camp, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, _ := want.Encode()
	gotBytes, _ := final.Report.Encode()
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatal("resumed report differs from reference")
	}
	// If daemon A had already finished everything, B had nothing to resume
	// and the test degenerates; guard against that silently passing.
	if srvB.Snapshot().JobUnitsDone == 0 && srvA.Snapshot().JobUnitsDone < 4000 {
		t.Fatal("neither daemon accounts for the campaign's units")
	}
}

// TestJobErrors: the job API's typed error envelope on every failure mode.
func TestJobErrors(t *testing.T) {
	dir := t.TempDir()
	_, hs := startServer(t, Options{Workers: 1, JobsDir: dir})

	expectError := func(method, path, body, wantCode string, wantStatus int) {
		t.Helper()
		var req *http.Request
		var err error
		if body == "" {
			req, err = http.NewRequest(method, hs.URL+path, nil)
		} else {
			req, err = http.NewRequest(method, hs.URL+path, bytes.NewReader([]byte(body)))
		}
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ae APIError
		if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
			t.Fatalf("%s %s: no envelope: %v", method, path, err)
		}
		if resp.StatusCode != wantStatus || ae.Code != wantCode {
			t.Fatalf("%s %s: status %d code %q, want %d %q", method, path, resp.StatusCode, ae.Code, wantStatus, wantCode)
		}
	}

	expectError(http.MethodPost, "/v1/jobs", `{not json`, ErrCodeInvalidSpec, http.StatusBadRequest)
	expectError(http.MethodPost, "/v1/jobs", `{"scenarios":[]}`, ErrCodeInvalidSpec, http.StatusBadRequest)
	expectError(http.MethodPut, "/v1/jobs", `{}`, ErrCodeMethod, http.StatusMethodNotAllowed)
	expectError(http.MethodGet, "/v1/jobs/nope", "", ErrCodeNotFound, http.StatusNotFound)
	expectError(http.MethodDelete, "/v1/jobs/nope", "", ErrCodeNotFound, http.StatusNotFound)
	expectError(http.MethodPatch, "/v1/jobs/nope", "", ErrCodeMethod, http.StatusMethodNotAllowed)
	expectError(http.MethodGet, "/v1/wrong-route", "", ErrCodeNotFound, http.StatusNotFound)
	expectError(http.MethodGet, "/v1/run", "", ErrCodeMethod, http.StatusMethodNotAllowed)
	expectError(http.MethodPost, "/v1/run", `{not json`, ErrCodeInvalidSpec, http.StatusBadRequest)
	expectError(http.MethodPost, "/v1/stats", "", ErrCodeMethod, http.StatusMethodNotAllowed)

	// Jobs disabled: a daemon without a job store answers 501.
	_, hs2 := startServer(t, Options{Workers: 1})
	resp, err := http.Get(hs2.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ae APIError
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotImplemented || ae.Code != ErrCodeJobsDisabled {
		t.Fatalf("jobs without store: status %d code %q", resp.StatusCode, ae.Code)
	}
}

// TestStatsFields asserts every documented /v1/stats field is present in
// the JSON — the regression gate for the counters the ops tooling scrapes.
func TestStatsFields(t *testing.T) {
	_, hs := startServer(t, Options{Workers: 1, Queue: 7, CacheSize: 9, JobsDir: t.TempDir()})
	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"workers", "queue_depth", "queue_capacity",
		"cache_entries", "cache_capacity", "in_flight",
		"requests", "bad_requests", "rejected",
		"load_shed", "deadline_exceeded", "quarantines",
		"hits", "misses", "coalesced", "executions",
		"jobs_total", "jobs_running", "job_units_done",
	}
	for _, k := range want {
		if _, ok := raw[k]; !ok {
			t.Errorf("stats JSON missing %q", k)
		}
	}
	if len(raw) != len(want) {
		keys := make([]string, 0, len(raw))
		for k := range raw {
			keys = append(keys, k)
		}
		t.Errorf("stats JSON has %d fields, want %d: %v", len(raw), len(want), keys)
	}
	// The struct and the JSON agree on field count too.
	if n := reflect.TypeOf(Stats{}).NumField(); n != len(want) {
		t.Errorf("Stats struct has %d fields, test covers %d — update both", n, len(want))
	}
}

// writeSpecDir fabricates a job directory the way submit does.
func writeSpecDir(dir string, spec shard.CampaignSpec) error {
	data, err := spec.Encode()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spec.json"), data, 0o644)
}

// TestRunningJobLeavesAdmissionToRuns: a job of millisecond units holds at
// most Workers queue slots while it runs, so a /v1/run miss issued in the
// middle of it is admitted instead of refused with 429.
func TestRunningJobLeavesAdmissionToRuns(t *testing.T) {
	const workers = 2
	srv, hs := startServer(t, Options{Workers: workers, Queue: 8, JobsDir: t.TempDir(), JobCheckpointEvery: 16})
	spec := shard.CampaignSpec{
		Name: "heavy",
		Scenarios: []scenario.Spec{{
			Name:      "heavy",
			Cores:     4,
			Run:       scenario.RunWCET,
			Workloads: []scenario.Workload{{Core: 0, Name: "matrix", Ops: 2000}},
			Seeds:     scenario.Seeds{Base: 1, Runs: 20000},
		}},
		Shards: 1,
	}
	code, st, body := postJob(t, hs.URL, spec)
	if code != http.StatusCreated {
		t.Fatalf("POST job: %d %s", code, body)
	}
	running := func() bool {
		_, s := getJob(t, hs.URL, st.ID)
		return s.State == JobRunning && s.UnitsDone < s.Units
	}
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		if d := srv.Snapshot().QueueDepth; d > workers {
			t.Fatalf("running job holds %d queue slots, want at most %d", d, workers)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !running() {
		t.Fatal("job finished before the probe; units too cheap to test admission")
	}
	code, _, body = post(t, hs.URL, testSpec("probe", 77))
	if code != http.StatusOK {
		t.Fatalf("/v1/run miss during a job: %d %s", code, body)
	}
	if !running() {
		t.Fatal("job finished during the probe; units too cheap to test admission")
	}
}

// TestJobDeleteMidChunk: DELETE stops a job inside its chunk. The only
// worker is wedged by a /v1/run hog and the job's first chunk waits in the
// queue behind it; the job's directory must still disappear within 5 s,
// while the hog is still wedged.
func TestJobDeleteMidChunk(t *testing.T) {
	jobsDir := t.TempDir()
	srv, hs := startServer(t, Options{Workers: 1, Queue: 8, JobsDir: jobsDir})
	release := make(chan struct{})
	var once sync.Once
	unwedge := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unwedge) // runs before the server's cleanup
	srv.execGate = func() { <-release }

	wedged := make(chan int, 1)
	go func() {
		code, _, _ := post(t, hs.URL, testSpec("hog", 1))
		wedged <- code
	}()
	deadline := time.Now().Add(10 * time.Second)
	for st := srv.Snapshot(); st.Misses < 1 || st.QueueDepth != 0; st = srv.Snapshot() {
		if time.Now().After(deadline) {
			t.Fatal("hog never reached the worker")
		}
		time.Sleep(time.Millisecond)
	}
	code, st, body := postJob(t, hs.URL, jobCampaign("delete-mid-chunk", 300))
	if code != http.StatusCreated {
		t.Fatalf("POST job: %d %s", code, body)
	}
	for srv.Snapshot().QueueDepth < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the job's first chunk never queued")
		}
		time.Sleep(time.Millisecond)
	}

	req, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	dir := filepath.Join(jobsDir, st.ID)
	gone := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
			break
		}
		if time.Now().After(gone) {
			t.Fatal("job directory still present 5 s after DELETE: the job waits inside its chunk")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case code := <-wedged:
		t.Fatalf("hog answered %d before its release", code)
	default:
	}
	unwedge()
	if code := <-wedged; code != http.StatusOK {
		t.Fatalf("hog finished %d", code)
	}
}
