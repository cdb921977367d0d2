package shard

import (
	"context"
	"fmt"

	"creditbus/internal/campaign"
	"creditbus/internal/scenario"
	"creditbus/internal/sim"
)

// DefaultCheckpointEvery is the default chunk size: units executed between
// checkpoints. It bounds both the work lost to a kill (≲ 40 ms of
// simulation at mega-campaign unit costs) and the peak per-chunk result
// memory, while keeping checkpoint-write amortisation negligible.
const DefaultCheckpointEvery = 32768

// Runner executes shards of a compiled campaign: chunked parallel
// execution on a pool of scenario.Workers, streaming aggregation, and (when
// a Store is attached) a checkpoint after every chunk plus resume from the
// last one. RunShardOn is the one loop that runs and checkpoints a shard —
// cmd/corpus and the perfbench shard workload reach it through RunShard,
// the daemon's job engine directly on its shared pool. One Runner is
// single-use-at-a-time per shard but carries no cross-call state —
// resumability lives entirely in the Store.
type Runner struct {
	// Campaign is the compiled campaign.
	Campaign *Campaign
	// Store, when non-nil, persists a checkpoint after every chunk and
	// seeds RunShard from the shard's last checkpoint.
	Store *Store
	// Workers sizes the pool RunShard opens (0 = GOMAXPROCS).
	Workers int
	// CheckpointEvery is the chunk size in units (≤ 0 = default).
	CheckpointEvery int64
	// MaxUnits, when > 0, bounds the units executed by one RunShard call:
	// the shard checkpoints and returns incomplete once the budget is
	// spent. It exists for deterministic mid-shard stops — the
	// kill-and-resume differential tests and operator-paced draining.
	MaxUnits int64
	// Progress, when non-nil, observes (units done in shard, shard size)
	// after every chunk.
	Progress func(done, total int64)
}

func (r *Runner) chunk() int64 {
	if r.CheckpointEvery > 0 {
		return r.CheckpointEvery
	}
	return DefaultCheckpointEvery
}

// newPool opens the worker set one RunShard or Reference call runs every
// chunk on. Chunks are contiguous unit ranges, so a worker crosses a
// scenario boundary (re-cloning its programs once) only where the
// campaign's scenarios meet.
func (r *Runner) newPool() (*campaign.Pool[*scenario.Worker], error) {
	return campaign.Options[*scenario.Worker]{
		Workers:        r.Workers,
		PerWorkerState: func() *scenario.Worker { return new(scenario.Worker) },
	}.NewPool()
}

// runChunk executes units [agg.Lo+agg.N, agg.Lo+agg.N+n) on p and folds
// them into agg in unit order. Map collects in unit order, so the aggregate
// state is independent of the worker count. When ctx ends first, agg is
// left as it was.
func (r *Runner) runChunk(ctx context.Context, p *campaign.Pool[*scenario.Worker], agg *Agg, n int64) error {
	lo := agg.Lo + agg.N
	results, err := campaign.Map(ctx, p, int(n), nil, func(w *scenario.Worker, j int) (sim.Result, error) {
		u := lo + int64(j)
		scen, seed, err := r.Campaign.Unit(u)
		if err != nil {
			return sim.Result{}, err
		}
		res, err := r.Campaign.Scenarios[scen].RunOn(w, seed, "", nil)
		if err != nil {
			return sim.Result{}, fmt.Errorf("unit %d: %w", u, err)
		}
		return res, nil
	})
	if err != nil {
		return err
	}
	for _, res := range results {
		agg.Add(res)
	}
	return nil
}

// RunShard executes shard i on a pool of Workers opened for the call; see
// RunShardOn.
func (r *Runner) RunShard(i int) (agg *Agg, complete bool, err error) {
	p, err := r.newPool()
	if err != nil {
		return nil, false, err
	}
	defer p.Close()
	return r.RunShardOn(context.Background(), p, i, nil)
}

// RunShardOn executes shard i on p: resume from the store's last
// checkpoint when one exists, then run chunk by chunk — checkpointing after
// each — until the shard range is complete, the MaxUnits budget is spent,
// or ctx ends (which abandons the running chunk: nothing of it is
// checkpointed, and the error is context.Cause(ctx)). observe, when
// non-nil, sees the aggregate after the resume load and after every
// checkpoint. complete reports whether the returned aggregate covers the
// whole shard range.
func (r *Runner) RunShardOn(ctx context.Context, p *campaign.Pool[*scenario.Worker], i int, observe func(*Agg)) (agg *Agg, complete bool, err error) {
	lo, hi, err := r.Campaign.Plan.Range(i)
	if err != nil {
		return nil, false, err
	}
	if r.Store != nil {
		if !r.Store.Manifest().matches(r.Campaign.Manifest()) {
			return nil, false, fmt.Errorf("shard: store manifest does not match campaign %.12s", r.Campaign.Digest())
		}
		if agg, _, err = r.Store.LoadShard(i); err != nil {
			return nil, false, err
		}
	}
	if agg != nil {
		if agg.Lo != lo || agg.Lo+agg.N > hi {
			return nil, false, fmt.Errorf("shard: checkpoint covers [%d,+%d), shard %d is [%d,%d)", agg.Lo, agg.N, i, lo, hi)
		}
	} else if agg, err = NewAgg(lo, r.Campaign.Block()); err != nil {
		return nil, false, err
	}
	if observe != nil {
		observe(agg)
	}

	budget := r.MaxUnits
	for agg.Lo+agg.N < hi {
		n := min(r.chunk(), hi-(agg.Lo+agg.N))
		if r.MaxUnits > 0 {
			if budget <= 0 {
				return agg, false, nil
			}
			n = min(n, budget)
		}
		if err := r.runChunk(ctx, p, agg, n); err != nil {
			return nil, false, err
		}
		if r.Store != nil {
			if err := r.Store.SaveShard(i, agg); err != nil {
				return nil, false, err
			}
		}
		if observe != nil {
			observe(agg)
		}
		if r.Progress != nil {
			r.Progress(agg.N, hi-lo)
		}
		budget -= n
	}
	return agg, true, nil
}

// Merge combines per-shard aggregates (in shard order, i.e. ascending Lo)
// into the campaign-wide aggregate. Inputs must tile [0, Units) exactly —
// a missing or partial shard is an error, because a merged report over a
// partial campaign would silently compare unequal against the reference.
// The first aggregate is mutated into the result.
func Merge(c *Campaign, aggs []*Agg) (*Agg, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("shard: merge of no aggregates")
	}
	merged := aggs[0]
	if merged == nil {
		return nil, fmt.Errorf("shard: merge of nil aggregate")
	}
	if merged.Lo != 0 {
		return nil, fmt.Errorf("shard: first aggregate starts at unit %d, not 0", merged.Lo)
	}
	for _, a := range aggs[1:] {
		if err := merged.Merge(a); err != nil {
			return nil, err
		}
	}
	if merged.N != c.Units() {
		return nil, fmt.Errorf("shard: merged aggregates cover %d of %d units", merged.N, c.Units())
	}
	if err := merged.validate(c.Block()); err != nil {
		return nil, err
	}
	return merged, nil
}

// MergeStore loads every shard's checkpoint from the store, verifies the
// campaign is complete, merges, and derives the report — the coordinator's
// final step after the shard workers exit.
func MergeStore(c *Campaign, st *Store) (Report, error) {
	if !st.Manifest().matches(c.Manifest()) {
		return Report{}, fmt.Errorf("shard: store manifest does not match campaign %.12s", c.Digest())
	}
	aggs := make([]*Agg, c.Plan.Shards)
	for i := range aggs {
		lo, hi, err := c.Plan.Range(i)
		if err != nil {
			return Report{}, err
		}
		a, ok, err := st.LoadShard(i)
		if err != nil {
			return Report{}, err
		}
		if !ok {
			return Report{}, fmt.Errorf("shard: shard %d has no checkpoint; campaign incomplete", i)
		}
		if a.Lo != lo || a.N != hi-lo {
			return Report{}, fmt.Errorf("shard: shard %d checkpoint covers [%d,+%d) of [%d,%d); campaign incomplete", i, a.Lo, a.N, lo, hi)
		}
		aggs[i] = a
	}
	merged, err := Merge(c, aggs)
	if err != nil {
		return Report{}, err
	}
	return merged.Report(c)
}

// Reference executes the whole campaign in-process with no checkpointing
// and derives the report — the single-process reference the sharded paths
// must match byte for byte.
func Reference(c *Campaign, workers int) (Report, error) {
	agg, err := NewAgg(0, c.Block())
	if err != nil {
		return Report{}, err
	}
	r := &Runner{Campaign: c, Workers: workers}
	p, err := r.newPool()
	if err != nil {
		return Report{}, err
	}
	defer p.Close()
	for agg.N < c.Units() {
		if err := r.runChunk(context.Background(), p, agg, min(r.chunk(), c.Units()-agg.N)); err != nil {
			return Report{}, err
		}
	}
	return agg.Report(c)
}
