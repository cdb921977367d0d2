package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"creditbus/internal/scenario"
	"creditbus/internal/shard"
)

// shardSpec is the shard-campaign workload: units split 2:1 between two
// tiny 2-core isolation scenarios, so the unit space crosses a scenario
// boundary, in two shards.
func shardSpec(seed uint64, units int64) shard.CampaignSpec {
	tiny := func(name string, base uint64, runs int64) scenario.Spec {
		return scenario.Spec{
			Name:      name,
			Cores:     2,
			Run:       scenario.RunIsolation,
			Workloads: []scenario.Workload{{Core: 0, Name: "canrdr", Ops: 8}},
			Seeds:     scenario.Seeds{Base: base, Runs: int(runs)},
		}
	}
	a := units * 2 / 3
	return shard.CampaignSpec{
		Name: "perf-shard",
		Scenarios: []scenario.Spec{
			tiny("shard-a", 1+mix(seed, 0)%(1<<32), a),
			tiny("shard-b", 1+mix(seed, 1)%(1<<32), units-a),
		},
		Shards: 2,
	}
}

// shardRun is one sharded campaign as the benchmark saw it.
type shardRun struct {
	report       []byte
	secs         float64
	chunkMS      []float64 // one per checkpointed chunk
	checkpointMB float64   // traced only: one shard's checkpoint file
}

// runShardJob runs camp end to end into a fresh checkpoint store: each
// shard in turn (shard.Runner, a checkpoint after every chunk), then
// MergeStore and Report.Encode. Chunk latencies come from the Runner's
// progress callbacks. With a tracer it records shard.shard, shard.chunk,
// shard.merge and shard.encode spans, and after the job a direct
// Store.SaveShard of shard 0's final aggregate as a shard.save span.
func runShardJob(e *env, camp *shard.Campaign, every int64, tr *tracer, job string) (shardRun, error) {
	var out shardRun
	root := tr.open("shard.job", -1, job)
	t0 := time.Now()
	dir, err := os.MkdirTemp(e.tmp, "store-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	st, err := shard.Open(dir, camp.Manifest())
	if err != nil {
		return out, err
	}
	var first *shard.Agg
	for i := 0; i < camp.Plan.Shards; i++ {
		id := fmt.Sprintf("%s/shard-%d", job, i)
		ss := tr.open("shard.shard", root, id)
		prev := time.Now()
		r := &shard.Runner{Campaign: camp, Store: st, Workers: e.workers, CheckpointEvery: every,
			Progress: func(done, total int64) {
				now := time.Now()
				out.chunkMS = append(out.chunkMS, ms(now.Sub(prev)))
				tr.add("shard.chunk", ss, id, prev, now)
				prev = now
			}}
		agg, complete, err := r.RunShard(i)
		tr.finish(ss)
		if err != nil {
			return out, err
		}
		if !complete {
			return out, fmt.Errorf("shard %d stopped incomplete", i)
		}
		if first == nil {
			first = agg
		}
	}
	tm := time.Now()
	rep, err := shard.MergeStore(camp, st)
	if err != nil {
		return out, err
	}
	te := time.Now()
	tr.add("shard.merge", root, job, tm, te)
	out.report, err = rep.Encode()
	if err != nil {
		return out, err
	}
	tr.add("shard.encode", root, job, te, time.Now())
	out.secs = time.Since(t0).Seconds()
	tr.finish(root)
	if tr != nil {
		ts := time.Now()
		if err := st.SaveShard(0, first); err != nil {
			return out, err
		}
		tr.add("shard.save", -1, job, ts, time.Now())
		fi, err := os.Stat(filepath.Join(dir, "shard-0000.json"))
		if err != nil {
			return out, err
		}
		out.checkpointMB = float64(fi.Size()) / (1 << 20)
	}
	return out, nil
}

// shardWL is the shard-campaign workload. Every job runs the same campaign
// into a fresh store, so every job's report must be byte-identical.
type shardWL struct {
	e       *env
	camp    *shard.Campaign
	kinds   []kind
	specs   []scenario.Spec
	reports [][]byte
}

func openShard(e *env) (instance, error) {
	spec := shardSpec(e.seed, e.size.shardUnits)
	camp, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	s := &shardWL{e: e, camp: camp, specs: spec.Scenarios}
	for _, c := range camp.Scenarios {
		s.kinds = append(s.kinds, kindOf(c))
	}
	// Warm the simulation path as a user's first chunk would find it.
	_, err = runUnits(e, s.kinds, s.units(2*e.workers), false, nil, "warm")
	return s, err
}

func (s *shardWL) close() {}

// units returns the campaign's first n units as simulation runs.
func (s *shardWL) units(n int) []unit {
	out := make([]unit, 0, n)
	for u := int64(0); u < min(int64(n), s.camp.Units()); u++ {
		k, seed, err := s.camp.Unit(u)
		if err != nil {
			panic(err) // u is in range by construction
		}
		out = append(out, unit{k, seed})
	}
	return out
}

func (s *shardWL) measure(budget time.Duration) (sample, error) {
	var sm sample
	var secs []float64
	start := time.Now()
	for j := 0; ; j++ {
		if j > 0 && time.Since(start).Seconds()+median(secs)/2 >= budget.Seconds() {
			break
		}
		run, err := runShardJob(s.e, s.camp, 0, nil, fmt.Sprintf("job-%d", j))
		if err != nil {
			return sm, err
		}
		sm.attempted += s.camp.Units()
		secs = append(secs, run.secs)
		sm.rates = append(sm.rates, float64(s.camp.Units())/run.secs)
		sm.windows = append(sm.windows, run.chunkMS)
		s.reports = append(s.reports, run.report)
	}
	return sm, nil
}

// verify compares the first report with the single-process reference byte
// for byte (untimed) and every later report with the first.
func (s *shardWL) verify() (int, error) {
	if len(s.reports) == 0 {
		return 0, nil
	}
	ref, err := shard.Reference(s.camp, s.e.workers)
	if err != nil {
		return 0, err
	}
	want, err := ref.Encode()
	if err != nil {
		return 0, err
	}
	bad := 0
	for j, r := range s.reports {
		if !bytes.Equal(r, want) {
			fmt.Fprintf(s.e.log, "FAIL job %d: merged report differs from shard.Reference\n", j)
			bad++
		}
	}
	fmt.Fprintf(s.e.log, "verify: %d merged reports against shard.Reference, %d mismatches\n", len(s.reports), bad)
	return bad, nil
}

func (s *shardWL) digest() (string, error) {
	if len(s.reports) == 0 {
		return "", fmt.Errorf("no job completed")
	}
	sum := sha256.Sum256(s.reports[0])
	return hex.EncodeToString(sum[:]), nil
}

// trace runs the campaign untraced and traced (the difference in job time
// is the tracing overhead; the traced report must hash the same), then
// drives its first units through the campaign, simulation and service
// layers and runs the layer ledger.
func (s *shardWL) trace(tr *tracer, out metrics) (string, error) {
	plain, err := runShardJob(s.e, s.camp, 0, nil, "job-0")
	if err != nil {
		return "", err
	}
	s.reports = [][]byte{plain.report}
	traced, err := runShardJob(s.e, s.camp, 0, tr, "job-0")
	if err != nil {
		return "", err
	}
	out.set("trace.overhead_pct", 100*(traced.secs-plain.secs)/plain.secs, "%")
	out.set("shard.checkpoint_mb", traced.checkpointMB, "MiB")
	sum := sha256.Sum256(traced.report)

	units := s.units(max(s.e.size.miniUnits*len(s.kinds), s.e.size.miniRequests))
	t0 := time.Now()
	recs, err := runUnits(s.e, s.kinds, units, false, tr, "units")
	if err != nil {
		return "", err
	}
	campaignMetrics(recs, t0, time.Now(), s.e.workers, out)
	if _, err := digestOf(results(recs), tr); err != nil {
		return "", err
	}
	var bodies [][]byte
	for i, u := range units[:s.e.size.miniRequests] {
		sp := s.specs[u.k]
		sp.Name = fmt.Sprintf("%s-%d", sp.Name, i)
		sp.Seeds = scenario.Seeds{List: []uint64{u.seed}}
		body, err := sp.Encode()
		if err != nil {
			return "", err
		}
		bodies = append(bodies, body)
	}
	if err := miniService(s.e, tr, bodies, out); err != nil {
		return "", err
	}
	if err := layerLedger(s.e, s.kinds[0], recs, out); err != nil {
		return "", err
	}
	spanMetrics(tr, out)
	return hex.EncodeToString(sum[:]), nil
}

// miniShard drives a non-shard workload's specs through the shard layer: a
// small two-shard campaign over them, checkpointing about eight times.
func miniShard(e *env, tr *tracer, specs []scenario.Spec, base uint64, out metrics) error {
	cs := shard.CampaignSpec{
		Name:      "perf-layer",
		Scenarios: specs,
		Seeds:     &scenario.Seeds{Base: base, Runs: max(4, 2*e.size.miniUnits/len(specs))},
		Shards:    2,
	}
	camp, err := cs.Compile()
	if err != nil {
		return err
	}
	run, err := runShardJob(e, camp, max(1, camp.Units()/8), tr, "layer")
	if err != nil {
		return err
	}
	out.set("shard.checkpoint_mb", run.checkpointMB, "MiB")
	return nil
}
