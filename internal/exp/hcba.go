package exp

import (
	"creditbus/internal/arbiter"
	"creditbus/internal/bus"
	"creditbus/internal/campaign"
	"creditbus/internal/core"
	"creditbus/internal/trace"
)

// HCBAResult compares the two heterogeneous-allocation mechanisms of
// §III.A on a bursty privileged task: variant 1 (budget cap above the
// eligibility threshold) permits back-to-back grants — good for the
// privileged core's burst latency, but it creates "some temporal starvation
// to the others" — while variant 2 (heterogeneous refill weights) smooths
// the extra bandwidth out.
type HCBAResult struct {
	// Variant is "weights" (1/2 vs 1/6, the paper's evaluation setting) or
	// "cap" (2× budget cap).
	Variant string
	// BurstLatency is the mean number of cycles from the first post of an
	// 8-request burst to its last completion.
	BurstLatency float64
	// TuABackToBack counts privileged-core grants issued back to back.
	TuABackToBack int64
	// TuAMaxRun is the privileged core's longest uninterrupted bus
	// occupancy — the "temporal starvation" the cap variant inflicts on
	// the other cores.
	TuAMaxRun int64
	// ContenderMaxWait is the worst single-request wait of any contender.
	ContenderMaxWait int64
	// TuAShare is the privileged core's bus cycle share.
	TuAShare float64
	// ContenderShare is the contenders' combined bus cycle share: the
	// weights variant throttles them to Σ(1/6) = 50%, the cap variant
	// leaves their homogeneous 75% cap in place.
	ContenderShare float64
}

// hcbaScenario: the privileged master sleeps 600 cycles, then posts a burst
// of 8 requests of hold 28 (each posted as soon as the previous completes),
// repeated; three contenders stream hold-28 requests continuously.
func hcbaScenario(variant string, seed uint64) HCBAResult {
	// Bursts of two: exactly what the cap variant's doubled budget can fund
	// back to back (each 28-cycle hold costs 84 of the 224 banked beyond
	// the threshold). Longer bursts exhaust the bank and converge to the
	// weights variant's behaviour.
	const (
		masters = 4
		maxHold = 56
		bursts  = 200
		burstN  = 2
		idleGap = 600
	)
	var cfg core.Config
	var err error
	switch variant {
	case "weights":
		cfg, err = core.HeterogeneousWeights(masters, maxHold, 0, 1, 2)
	case "cap":
		cfg, err = core.HeterogeneousCap(masters, maxHold, 0, 2)
	default:
		panic("exp: unknown H-CBA variant " + variant)
	}
	if err != nil {
		panic(err)
	}
	credit := core.MustNew(cfg)
	var grants []bus.GrantEvent

	var b *bus.Bus
	var burstStart, burstDone []int64
	state := struct {
		inBurst    bool
		toPost     int // requests of the burst not yet posted
		remaining  int // requests of the burst not yet completed
		wakeAt     int64
		burstsLeft int
	}{wakeAt: 0, burstsLeft: bursts}

	b = bus.MustNew(bus.Config{
		Masters: masters, MaxHold: maxHold,
		Policy:  arbiter.NewRandomPermutation(masters, seed),
		Credit:  credit,
		OnGrant: func(e bus.GrantEvent) { grants = append(grants, e) },
		OnComplete: func(m int, _ uint64) {
			if m != 0 {
				return
			}
			state.remaining--
			if state.remaining == 0 {
				state.inBurst = false
				burstDone = append(burstDone, b.Cycle())
				state.wakeAt = b.Cycle() + idleGap
			}
		},
	})

	for state.burstsLeft > 0 || state.inBurst {
		now := b.Cycle()
		if !state.inBurst && state.burstsLeft > 0 && now >= state.wakeAt {
			state.inBurst = true
			state.toPost = burstN
			state.remaining = burstN
			state.burstsLeft--
			burstStart = append(burstStart, now)
		}
		// The burst keeps the request line asserted: the next request is
		// posted as soon as the previous one is granted, so banked credit
		// can turn into back-to-back grants.
		if state.toPost > 0 && b.CanPost(0) {
			b.MustPost(0, bus.Request{Hold: 28})
			state.toPost--
		}
		for m := 1; m < masters; m++ {
			if b.CanPost(m) {
				b.MustPost(m, bus.Request{Hold: 28})
			}
		}
		b.Tick()
		if b.Cycle() > 10_000_000 {
			panic("exp: H-CBA scenario did not converge")
		}
	}

	var total float64
	for i := range burstDone {
		total += float64(burstDone[i] - burstStart[i])
	}
	res := HCBAResult{
		Variant:      variant,
		BurstLatency: total / float64(len(burstDone)),
		TuAShare:     b.CycleShare(0),
	}
	// Slack 2: completion → repost → one-cycle arbitration register.
	res.TuABackToBack = trace.BackToBackWithin(grants, 2)[0]
	res.TuAMaxRun = trace.LongestOccupancyRun(grants, 0, 2)
	for m := 1; m < masters; m++ {
		if w := b.Stats(m).MaxWait; w > res.ContenderMaxWait {
			res.ContenderMaxWait = w
		}
		res.ContenderShare += b.CycleShare(m)
	}
	return res
}

// HCBAAblation runs both §III.A variants on the bursty scenario. The two
// variants are independent simulations and run concurrently when
// opts.Workers permits.
func HCBAAblation(opts Options) []HCBAResult {
	opts = opts.withDefaults()
	variants := []string{"weights", "cap"}
	out, err := campaign.Do(campaign.Options[struct{}]{Workers: opts.Workers, Progress: opts.Progress},
		len(variants), func(_ struct{}, i int) (HCBAResult, error) {
			return hcbaScenario(variants[i], opts.runSeed(2000+i, 0)), nil
		})
	if err != nil {
		panic(err) // unreachable: scenario jobs never return an error
	}
	return out
}
