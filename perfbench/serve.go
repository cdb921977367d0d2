package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"creditbus/internal/scenario"
	"creditbus/internal/service"
)

// clientTimeout bounds one request; a request past it counts as failed.
const clientTimeout = 2 * time.Second

// server is an in-process service.Server behind a loopback listener, and
// the client the load generator drives it with.
type server struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

// startServer starts a service.Server with opts on 127.0.0.1 and a client
// holding at most conns connections to it.
func startServer(opts service.Options, conns int) (*server, error) {
	srv, err := service.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: clientTimeout},
		url:    "http://" + ln.Addr().String() + "/v1/run",
		served: make(chan error, 1),
		client: &http.Client{
			Timeout: clientTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for in-flight handlers and the serve
// goroutine, then drains the service's worker pool.
func (s *server) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close() // handlers still running past the grace period
	}
	<-s.served
	s.srv.Close()
}

// post sends one /v1/run request and returns the status and body.
func (s *server) post(body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// reqTimes is one open-loop request's timeline.
type reqTimes struct {
	due, sent, done time.Time
	waited          bool // the sender slept until the request fell due
	ok              bool
}

// openLoop sends n requests with Poisson arrivals at rate per second, drawn
// from rng, on at most conns sender goroutines. A sender takes the next
// request, sleeps until it is due if early, and sends it; when every sender
// is busy a due request waits, so its latency — measured from when it was
// due, not from when it was sent — includes the stall.
func openLoop(n int, rate float64, conns int, rng *rand.Rand, send func(i int) bool) []reqTimes {
	offsets := make([]time.Duration, n)
	var t float64
	for i := range offsets {
		t += rng.ExpFloat64() / rate
		offsets[i] = time.Duration(t * float64(time.Second))
	}
	times := make([]reqTimes, n)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				rt := &times[i]
				rt.due = start.Add(offsets[i])
				if d := time.Until(rt.due); d > 0 {
					time.Sleep(d)
					rt.waited = true
				}
				rt.sent = time.Now()
				rt.ok = send(i)
				rt.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return times
}

// loopStats summarises an open loop.
type loopStats struct {
	latMS   []float64 // from due to response; +Inf for a failed request
	lagMS   []float64 // how late a sleeping sender woke, per request it slept for
	backlog int       // requests due but unsent when the last request fell due
	failed  int
}

func summarize(times []reqTimes) loopStats {
	var st loopStats
	if len(times) == 0 {
		return st
	}
	last := times[len(times)-1].due
	for _, rt := range times {
		if rt.ok {
			st.latMS = append(st.latMS, ms(rt.done.Sub(rt.due)))
		} else {
			st.latMS = append(st.latMS, math.Inf(1))
			st.failed++
		}
		if rt.waited {
			st.lagMS = append(st.lagMS, ms(rt.sent.Sub(rt.due)))
		}
		if !rt.due.After(last) && rt.sent.After(last) {
			st.backlog++
		}
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// closedLoop keeps conns requests in flight until d has passed and returns
// when each successful request completed, in order, and how many failed.
func closedLoop(d time.Duration, conns int, send func(i int) bool) (done []time.Duration, failed int) {
	start := time.Now()
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				ok := send(int(next.Add(1) - 1))
				at := time.Since(start)
				mu.Lock()
				if ok {
					done = append(done, at)
				} else {
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	return done, failed
}

// windowRates cuts ordered completion times into at most n groups of equal
// count and returns each group's completions per second over the time since
// the previous group's last completion (or the start).
func windowRates(done []time.Duration, n int) []float64 {
	n = min(n, len(done))
	var rates []float64
	var from time.Duration
	for g := 0; g < n; g++ {
		lo, hi := g*len(done)/n, (g+1)*len(done)/n
		to := done[hi-1]
		rates = append(rates, float64(hi-lo)/max(to-from, time.Microsecond).Seconds())
		from = to
	}
	return rates
}

// serveSpec is variant v of the serving traffic, shaped like cbaload's: a
// terminating matrix TuA on core 0 against a looping ue-* traffic
// population on cores 1-7, two run seeds. Variants differ in their
// population's workload seed and so in their cache key.
func serveSpec(seed uint64, v, ops int) scenario.Spec {
	profiles := []string{"ue-stream", "ue-web", "ue-voice", "ue-mix"}
	return scenario.Spec{
		Name:  fmt.Sprintf("perf-%d", v),
		Cores: 8,
		Run:   scenario.RunWorkloads,
		Workloads: []scenario.Workload{
			{Core: 0, Name: "matrix", Ops: ops, Criticality: scenario.CritHigh},
		},
		Populations: []scenario.Population{
			{FromCore: 1, ToCore: 7, Name: profiles[v%len(profiles)], Loop: true, Seed: 1 + mix(seed, uint64(v))%(1<<32)},
		},
		Seeds: scenario.Seeds{List: []uint64{1, 2}},
	}
}

// response is one timed-phase response, kept for the untimed checks.
type response struct {
	v      int // spec (serve-hot) or variant (serve-cold) index
	status int
	body   []byte
	err    error
}

func (r response) ok() bool { return r.err == nil && r.status == http.StatusOK }

// serve is serve-hot or serve-cold.
type serve struct {
	e    *env
	hot  bool
	ops  int
	srv  *server
	pick *rand.Rand // serve-hot: which spec a request sends
	// bodies holds the encoded specs: serve-hot's distinct specs, or
	// serve-cold's variants made so far.
	bodies [][]byte
	warm   [][]byte // serve-hot: each spec's response during set-up
	mu     sync.Mutex
	resp   []response
}

// openServe starts the server. serve-hot pre-warms its cache with every
// spec, so nearly every timed lookup hits; serve-cold runs with a 512-entry
// cache and pre-encodes the open loop's fresh variants.
func openServe(e *env, hot bool) (instance, error) {
	opts := service.Options{Workers: e.workers}
	s := &serve{e: e, hot: hot, ops: e.size.hotOps, pick: rand.New(rand.NewPCG(e.seed, 0x7069636b))}
	if !hot {
		opts.CacheSize = 512
		s.ops = e.size.coldOps
	}
	srv, err := startServer(opts, e.conns)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	n := e.size.openLoopN
	if hot {
		n = e.size.hotSpecs
	}
	for v := 0; v < n; v++ {
		if _, err := s.body(v); err != nil {
			srv.close()
			return nil, err
		}
		if hot {
			st, b, err := srv.post(s.bodies[v])
			if err != nil || st != http.StatusOK {
				srv.close()
				return nil, fmt.Errorf("pre-warm spec %d: status %d: %v", v, st, err)
			}
			s.warm = append(s.warm, b)
		}
	}
	return s, nil
}

func (s *serve) close() { s.srv.close() }

// body returns the encoded spec or variant v, encoding it on first use.
func (s *serve) body(v int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.bodies) <= v {
		b, err := serveSpec(s.e.seed, len(s.bodies), s.ops).Encode()
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, b)
	}
	return s.bodies[v], nil
}

// variants maps each of n requests to the spec it sends: a seeded draw
// among the distinct specs for serve-hot, the never-seen variant first+i
// for serve-cold.
func (s *serve) variants(n, first int) []int {
	vs := make([]int, n)
	for i := range vs {
		if s.hot {
			vs[i] = s.pick.IntN(s.e.size.hotSpecs)
		} else {
			vs[i] = first + i
		}
	}
	return vs
}

// sender returns the send function of a load phase: request i sends
// variant vs(i) and its response is kept for the untimed checks.
func (s *serve) sender(vs func(i int) int) func(i int) bool {
	return func(i int) bool {
		r := response{v: vs(i)}
		body, err := s.body(r.v)
		if err == nil {
			r.status, r.body, r.err = s.srv.post(body)
		} else {
			r.err = err
		}
		s.mu.Lock()
		s.resp = append(s.resp, r)
		s.mu.Unlock()
		return r.ok()
	}
}

// measure runs the fixed-rate open loop for latency, then spends the rest
// of the budget (e.size.capacityFrac of it, at least) in a closed loop on
// every connection: with at most conns connections no offered rate above
// that loop's completion rate can be served without a growing backlog, so
// it is the highest sustainable rate and the workload's units_per_s. The
// open loop's first sixteenth warms the server and client up; those
// requests count as attempted but their latency is not reported. The rest
// is cut into serveWindows windows by due time, and the closed loop's
// completions into as many groups.
func (s *serve) measure(budget time.Duration) (sample, error) {
	z := s.e.size
	nA := max(2, min(z.openLoopN, int(z.rate*budget.Seconds()*(1-z.capacityFrac))))
	vs := s.variants(nA, 0)
	t0 := time.Now()
	times := openLoop(nA, z.rate, s.e.conns, rand.New(rand.NewPCG(s.e.seed, 0x6172726976)),
		s.sender(func(i int) int { return vs[i] }))
	st := summarize(times)
	if st.backlog > 2 {
		fmt.Fprintf(s.e.log, "note: %d requests due but unsent when the last fell due\n", st.backlog)
	}
	if lag := pct(st.lagMS, 0.99); lag > 5 {
		fmt.Fprintf(s.e.log, "INVALID: the load generator ran %.2f ms late at p99 (limit 5 ms)\n", lag)
	}
	capacity := max(budget-time.Since(t0), time.Duration(float64(budget)*z.capacityFrac))
	first := nA
	done, bad := closedLoop(capacity, s.e.conns, s.sender(func(i int) int {
		if s.hot {
			return int(mix(s.e.seed, uint64(i)) % uint64(z.hotSpecs))
		}
		return first + i
	}))
	ok := len(done)
	rates := windowRates(done, serveWindows)
	lat := st.latMS[nA/16:]
	var windows [][]float64
	for w := 0; w < serveWindows; w++ {
		windows = append(windows, lat[w*len(lat)/serveWindows:(w+1)*len(lat)/serveWindows])
	}
	return sample{
		attempted: int64(nA + ok + bad),
		failed:    int64(st.failed + bad),
		rates:     rates,
		windows:   windows,
	}, nil
}

// serveWindows is how many windows a serving run's latencies and capacity
// are each cut into; at the fixed rate each latency window holds about 140
// requests.
const serveWindows = 4

// verify checks responses byte for byte against direct runs of the same
// spec (the cbaload -verify contract): every serve-hot spec, and every
// response against its spec's first; a seeded 5% of serve-cold's.
func (s *serve) verify() (int, error) {
	bad := 0
	if s.hot {
		want := make([]string, len(s.warm))
		for v, b := range s.warm {
			if err := verifyBody(serveSpec(s.e.seed, v, s.ops), b); err != nil {
				fmt.Fprintf(s.e.log, "FAIL spec %d: %v\n", v, err)
				bad++
			}
			var err error
			if want[v], err = bodyDigest(b); err != nil {
				return 0, err
			}
		}
		for i, r := range s.resp {
			if !r.ok() {
				continue
			}
			// Only the per-run "cached" flag may differ from the set-up
			// response; the seeds and results must not.
			if got, err := bodyDigest(r.body); err != nil || got != want[r.v] {
				fmt.Fprintf(s.e.log, "FAIL request %d: response differs from spec %d's first (%v)\n", i, r.v, err)
				bad++
			}
		}
		fmt.Fprintf(s.e.log, "verify: %d specs against direct runs, %d responses against them, %d mismatches\n", len(s.warm), len(s.resp), bad)
		return bad, nil
	}
	var okIdx []int
	for i, r := range s.resp {
		if r.ok() {
			okIdx = append(okIdx, i)
		}
	}
	n := min(len(okIdx), max(s.e.size.verifyMin, int(math.Ceil(0.05*float64(len(okIdx))))))
	rng := rand.New(rand.NewPCG(s.e.seed, 0x636f6c64))
	for _, k := range rng.Perm(len(okIdx))[:n] {
		r := s.resp[okIdx[k]]
		if err := verifyBody(serveSpec(s.e.seed, r.v, s.ops), r.body); err != nil {
			fmt.Fprintf(s.e.log, "FAIL variant %d: %v\n", r.v, err)
			bad++
		}
	}
	fmt.Fprintf(s.e.log, "verify: %d of %d responses against direct runs, %d mismatches\n", n, len(okIdx), bad)
	return bad, nil
}

// verifyBody checks one response body against direct runs of sp.
func verifyBody(sp scenario.Spec, body []byte) error {
	var rr service.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	c, err := sp.Compile()
	if err != nil {
		return err
	}
	if len(rr.Runs) != len(c.Seeds) {
		return fmt.Errorf("%d runs for %d seeds", len(rr.Runs), len(c.Seeds))
	}
	for j, seed := range c.Seeds {
		direct, err := c.RunSeed(seed)
		if err != nil {
			return err
		}
		want, err := json.Marshal(scenario.Snap(direct))
		if err != nil {
			return err
		}
		got, err := json.Marshal(rr.Runs[j].Result)
		if err != nil {
			return err
		}
		if rr.Runs[j].Seed != seed || !bytes.Equal(want, got) {
			return fmt.Errorf("seed %d: response differs from direct run", seed)
		}
	}
	return nil
}

// digestSpecs is how many specs the serving digest covers: serve-hot's
// distinct specs, or serve-cold's first variants.
func (s *serve) digestSpecs() int { return s.e.size.hotSpecs }

// digest hashes the canonical snapshots in the responses to the digest
// specs: serve-hot's set-up responses, serve-cold's first requests.
func (s *serve) digest() (string, error) {
	bodies := s.warm
	if !s.hot {
		bodies = make([][]byte, s.digestSpecs())
		for _, r := range s.resp {
			if r.v < len(bodies) && r.ok() && bodies[r.v] == nil {
				bodies[r.v] = r.body
			}
		}
	}
	var res []scenario.ResultSnapshot
	for v, b := range bodies {
		if b == nil {
			return "", fmt.Errorf("no response to variant %d", v)
		}
		snaps, err := bodySnaps(b)
		if err != nil {
			return "", err
		}
		res = append(res, snaps...)
	}
	return snapDigest(res)
}

// bodySnaps decodes the per-seed results of a /v1/run response body.
func bodySnaps(body []byte) ([]scenario.ResultSnapshot, error) {
	var rr service.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	snaps := make([]scenario.ResultSnapshot, len(rr.Runs))
	for i, run := range rr.Runs {
		snaps[i] = run.Result
	}
	return snaps, nil
}

// bodyDigest is the digest of one response's results.
func bodyDigest(body []byte) (string, error) {
	snaps, err := bodySnaps(body)
	if err != nil {
		return "", err
	}
	return snapDigest(snaps)
}

// trace runs a slice of the open loop untraced and again traced (the
// difference in median latency is the tracing overhead), replays every
// traced request through the handler and the scenario layer, re-runs the
// digest specs directly through the campaign and simulation layers, runs
// them as a sharded campaign, and runs the layer ledger.
func (s *serve) trace(tr *tracer, out metrics) (string, error) {
	z := s.e.size
	n := z.traceRequests
	if !s.hot {
		n = max(n, s.digestSpecs())
	}
	vs := s.variants(n, 0)
	plain := summarize(openLoop(n, z.rate, s.e.conns, rand.New(rand.NewPCG(s.e.seed, 0x6172726976)),
		s.sender(func(i int) int { return vs[i] })))
	// serve-cold's traced requests and replays must miss, as in the timed
	// run, so each gets a variant never sent before.
	tvs := s.variants(n, n)
	rvs := s.variants(n, 2*n)
	bodies := make([][]byte, n)
	replays := make([][]byte, n)
	for i := range bodies {
		var err error
		if bodies[i], err = s.body(tvs[i]); err != nil {
			return "", err
		}
		if replays[i], err = s.body(rvs[i]); err != nil {
			return "", err
		}
	}
	traced, err := tracedService(s.e, tr, s.srv, bodies, replays, out)
	if err != nil {
		return "", err
	}
	p0, p1 := median(plain.latMS), median(traced.latMS)
	out.set("trace.overhead_pct", 100*(p1-p0)/p0, "%")

	var specs []scenario.Spec
	var kinds []kind
	var units []unit
	for v := 0; v < s.digestSpecs(); v++ {
		sp := serveSpec(s.e.seed, v, s.ops)
		c, err := sp.Compile()
		if err != nil {
			return "", err
		}
		specs = append(specs, sp)
		kinds = append(kinds, kindOf(c))
		for _, seed := range c.Seeds {
			units = append(units, unit{v, seed})
		}
	}
	t0 := time.Now()
	recs, err := runUnits(s.e, kinds, units, false, tr, "digest")
	if err != nil {
		return "", err
	}
	campaignMetrics(recs, t0, time.Now(), s.e.workers, out)
	got, err := digestOf(results(recs), tr)
	if err != nil {
		return "", err
	}
	if err := miniShard(s.e, tr, specs, 1, out); err != nil {
		return "", err
	}
	if err := layerLedger(s.e, kinds[0], recs, out); err != nil {
		return "", err
	}
	spanMetrics(tr, out)
	return got, nil
}

// tracedService sends bodies open-loop at the fixed rate through srv,
// recording a loadgen.request span (due to response) and an http.request
// span (send to response) per request and sampling the queue every 10 ms;
// then replays each of replays through the handler in-process, timing the
// scenario layer's parse, compile and cache-key work on the same body next
// to it. It records the service-layer counters and the load generator's lag.
func tracedService(e *env, tr *tracer, srv *server, bodies, replays [][]byte, out metrics) (loopStats, error) {
	before := srv.srv.Snapshot()
	var depths []float64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				depths = append(depths, float64(srv.srv.Snapshot().QueueDepth))
			}
		}
	}()
	var sendErr atomic.Value
	times := openLoop(len(bodies), e.size.rate, e.conns, rand.New(rand.NewPCG(e.seed, 0x7472616365)), func(i int) bool {
		t0 := time.Now()
		st, _, err := srv.post(bodies[i])
		tr.add("http.request", -1, fmt.Sprintf("req-%d", i), t0, time.Now())
		if err != nil {
			sendErr.Store(err)
		}
		return err == nil && st == http.StatusOK
	})
	close(stop)
	<-sampled
	after := srv.srv.Snapshot()
	for i, rt := range times {
		tr.add("loadgen.request", -1, fmt.Sprintf("req-%d", i), rt.due, rt.done)
	}
	st := summarize(times)
	if st.failed > 0 {
		return st, fmt.Errorf("%d of %d traced requests failed (last error: %v)", st.failed, len(bodies), sendErr.Load())
	}
	h := srv.srv.Handler()
	for i, body := range replays {
		if err := replay(tr, h, body, fmt.Sprintf("req-%d", i)); err != nil {
			return st, err
		}
	}
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses > 0 {
		out.set("service.hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	} else {
		out.set("service.hit_ratio", 0, "ratio")
	}
	out.set("service.coalesced", float64(after.Coalesced-before.Coalesced), "count")
	out.set("service.executions", float64(after.Executions-before.Executions), "count")
	out.set("service.rejected", float64(after.Rejected-before.Rejected), "count")
	out.set("service.shed", float64(after.LoadShed-before.LoadShed), "count")
	out.set("service.deadline", float64(after.DeadlineExceeded-before.DeadlineExceeded), "count")
	out.set("service.queue_depth_p99", pct(depths, 0.99), "count")
	out.set("loadgen.lag_p99_ms", pct(st.lagMS, 0.99), "ms")
	return st, nil
}

// replay times one request body through the scenario layer and then
// through the handler in-process (no transport). The scenario spans are the
// handler's replayed children: its self time is its duration minus theirs.
func replay(tr *tracer, h http.Handler, body []byte, id string) error {
	root := tr.open("service.replay", -1, id)
	defer tr.finish(root)
	t0 := time.Now()
	sp, err := scenario.Parse(body)
	t1 := time.Now()
	tr.add("scenario.parse", root, id, t0, t1)
	if err != nil {
		return err
	}
	_, err = sp.Compile()
	t2 := time.Now()
	tr.add("scenario.compile", root, id, t1, t2)
	if err != nil {
		return err
	}
	_, err = sp.CacheKey()
	t3 := time.Now()
	tr.add("scenario.cachekey", root, id, t2, t3)
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	t4 := time.Now()
	h.ServeHTTP(rec, req)
	tr.add("service.handler", root, id, t4, time.Now())
	if rec.Code != http.StatusOK {
		return fmt.Errorf("replay %s: status %d: %s", id, rec.Code, rec.Body.Bytes())
	}
	return nil
}

// miniService drives a non-serving workload's own specs through the service
// layer: a fresh server, the bodies open-loop at the fixed rate, then
// replays of the same specs with the next seeds, so that every request and
// every replay simulates as a batch unit would.
func miniService(e *env, tr *tracer, bodies [][]byte, out metrics) error {
	if len(bodies) < 2 {
		return errors.New("service layer needs at least two bodies")
	}
	srv, err := startServer(service.Options{Workers: e.workers}, e.conns)
	if err != nil {
		return err
	}
	defer srv.close()
	half := len(bodies) / 2
	_, err = tracedService(e, tr, srv, bodies[:half], bodies[half:2*half], out)
	return err
}
