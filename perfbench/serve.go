package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"distda/internal/artifact"
	"distda/internal/cliutil"
	"distda/internal/compiler"
	"distda/internal/serve"
	"distda/internal/serveclient"
	"distda/internal/sim"
	"distda/internal/workloads"
)

// serveLayerMetrics are the per-layer metrics only the job server produces;
// expLayerMetrics only exp.Build. Each is zero on the other kind of workload.
var (
	serveLayerMetrics = []string{
		"serve.submit_ms.p50", "serve.submit_ms.p99",
		"serve.queue_wait_ms.p50", "serve.queue_wait_ms.p99",
		"serve.exec_ms.p50", "serve.result_ms.p50",
		"serve.misses", "serve.hits", "serve.coalesced", "serve.rejected",
		"bench.gen_lag_ms.p99",
	}
	expLayerMetrics = []string{
		"exp.busy_s", "exp.worker_idle_s", "exp.cell_max_s", "exp.parallel_slowdown",
	}
)

// verifySample is how many distinct keys a timed serve run recomputes.
const verifySample = 16

// serveWorkers is serve.Config's default worker count, which the serve
// workloads keep.
const serveWorkers = 2

// servedValidated is the line every correct run-job result carries.
var servedValidated = []byte("validated     true\n")

// serveSetup is a fresh in-process job server behind an httptest listener,
// a client limited to nproc connections, and the run's schedule.
type serveSetup struct {
	scale     workloads.Scale
	sched     schedule
	srv       *serve.Server
	ts        *httptest.Server
	transport *http.Transport
	client    *serveclient.Client
}

func (s *serveSetup) close() {
	s.transport.CloseIdleConnections()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // best effort: every job has ended or failed by now
}

func newServeSetup(ctx context.Context, seed int64, spec workloadSpec, dur time.Duration) (*serveSetup, error) {
	scale, err := cliutil.ParseScale(spec.Scale)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, w := range workloads.All(scale) {
		names = append(names, w.Name)
	}
	sched, err := makeSchedule(seed, keySpace(names), spec.RatePerS, spec.HotKeys, spec.MissShare, dur)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{})
	if err != nil {
		return nil, err
	}
	st := &serveSetup{scale: scale, sched: sched, srv: srv, ts: httptest.NewServer(srv.Handler())}
	n := runtime.NumCPU()
	st.transport = &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}
	st.client = serveclient.New(st.ts.URL, serveclient.WithHTTPClient(&http.Client{Transport: st.transport}))
	if err := st.client.Health(ctx); err != nil {
		st.close()
		return nil, fmt.Errorf("server not up: %w", err)
	}
	return st, nil
}

// jobRec is what one submission of the schedule observed.
type jobRec struct {
	arrival
	lag       time.Duration // how late the generator sent it
	submit    time.Duration // POST round trip
	result    time.Duration // GET result round trip
	latency   time.Duration // due time to result bytes received
	job       *serve.Job
	cached    bool
	coalesced bool
	body      []byte
	err       error
	rejected  bool
	ok        bool // bytes received and checked
}

// runServe is the serve-cold and serve-hot workload: an open-loop, seeded
// Poisson schedule of run jobs against a fresh in-process serve.NewServer
// with default workers. Each job is submitted and its result fetched over
// HTTP; completion is detected in-process, so the client needs at most nproc
// connections. The traced run then replays every distinct key serially
// through the public calls to split the server's work by layer.
func runServe(ctx context.Context, o options, spec workloadSpec, tr *tracer) (*outcome, error) {
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	out := newOutcome()
	dur := time.Duration(o.seconds) * time.Second

	h := tr.begin("bench.setup", -1, "run", 0)
	st, err := newServeSetup(ctx, o.seed, spec, dur)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	defer st.close()
	scale := st.scale

	recs, wall := openLoop(ctx, st, spec.Scale, tr)

	limit := time.Duration(spec.LatencyLimitMS * float64(time.Millisecond))
	first := checkServed(st.srv, recs, out)
	var lat, lags, submits, results, queueWait, exec []float64
	good, misses, hits, coalesced, rejected := 0, 0, 0, 0, 0
	var instr int64
	var execTotal time.Duration
	for i := range recs {
		r := &recs[i]
		l := r.latency
		if !r.ok && l < limit {
			l = limit // a failed or rejected job misses the limit
		}
		lat = append(lat, ms(l))
		lags = append(lags, ms(r.lag))
		if r.ok && r.latency <= limit {
			good++
		}
		if r.rejected {
			rejected++
		}
		if r.err != nil && r.job == nil {
			continue
		}
		submits = append(submits, ms(r.submit))
		if r.body != nil {
			results = append(results, ms(r.result))
		}
		switch {
		case r.cached:
			hits++
		case r.coalesced:
			coalesced++
		case r.job != nil:
			misses++
			js := st.srv.Status(r.job)
			if js.Started != nil && js.Finished != nil {
				queueWait = append(queueWait, ms(js.Started.Sub(js.Submitted)))
				e := js.Finished.Sub(*js.Started)
				exec = append(exec, ms(e))
				execTotal += e
				instr += servedInstructions(r.body)
			}
		}
	}
	out.info = append(out.info,
		fmt.Sprintf("schedule: %d jobs at %g/s over %s, %d distinct keys, hot set %d",
			len(recs), spec.RatePerS, dur, len(first), len(st.sched.Hot)),
		fmt.Sprintf("realized mix: %d misses, %d result-cache hits, %d coalesced, %d rejected", misses, hits, coalesced, rejected),
		fmt.Sprintf("worker busy share: %.3f of %d workers x wall", ratio(execTotal.Seconds(), serveWorkers*wall.Seconds()), serveWorkers),
		"generator lateness: "+tail(lags, 99).ms())

	if tr == nil {
		verifyServed(o.seed, scale, recs, first, out)
		out.set("wall_s", wall.Seconds(), "open-loop phase until the last result")
		out.set("sim_minstr_per_s", ratio(float64(instr)/1e6, execTotal.Seconds()),
			"simulated instructions of executed jobs per second of job execution")
		out.setQ("job_p50_ms", tail(lat, 50))
		out.info = append(out.info, "job latency tail, reported but not gated: "+tail(lat, 95).ms())
		out.set("goodput_jobs_s", ratio(float64(good), wall.Seconds()),
			fmt.Sprintf("correct results within %.0f ms", spec.LatencyLimitMS))
		out.set("max_rss_mb", maxRSSMB(), "")
		return out, nil
	}

	// Traced run: the per-layer ledger.
	l := newLedger()
	replayKeys(ctx, tr, l, scale, recs, first, out)
	l.report(out)
	stats := st.srv.Stats()
	cs, rs := stats.CompileCache, stats.ResultCache
	out.set("artifact.compile_hit_ratio", ratio(float64(cs.MemHits+cs.DiskHits), float64(cs.Requests)),
		fmt.Sprintf("server cache: %d hits of %d requests", cs.MemHits+cs.DiskHits, cs.Requests))
	out.set("artifact.result_hit_ratio", ratio(float64(rs.MemHits+rs.DiskHits), float64(rs.Requests)),
		fmt.Sprintf("server cache: %d hits of %d requests", rs.MemHits+rs.DiskHits, rs.Requests))
	out.set("report.render_s", l.render.Seconds(), "cliutil.FprintResult of the replayed keys")
	out.setQ("serve.submit_ms.p50", tail(submits, 50))
	out.setQ("serve.submit_ms.p99", tail(submits, 99))
	out.setQ("serve.queue_wait_ms.p50", tail(queueWait, 50))
	out.setQ("serve.queue_wait_ms.p99", tail(queueWait, 99))
	out.setQ("serve.exec_ms.p50", tail(exec, 50))
	out.setQ("serve.result_ms.p50", tail(results, 50))
	out.set("serve.misses", float64(misses), "")
	out.set("serve.hits", float64(hits), "")
	out.set("serve.coalesced", float64(coalesced), "")
	out.set("serve.rejected", float64(rejected), "")
	out.setQ("bench.gen_lag_ms.p99", tail(lags, 99))
	for _, name := range expLayerMetrics {
		out.set(name, 0, "exp does no work here")
	}
	finishTrace(tr, out, ms0)
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop sends the schedule on time, whatever the server's progress, and
// returns each job's record and the phase's wall time until the last result.
func openLoop(ctx context.Context, st *serveSetup, scale string, tr *tracer) ([]jobRec, time.Duration) {
	recs := make([]jobRec, len(st.sched.Jobs))
	ph := tr.begin("bench.open_loop", -1, "run", 0)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, a := range st.sched.Jobs {
		due := t0.Add(a.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r := &recs[i]
		r.arrival = a
		r.lag = time.Since(due)
		if err := ctx.Err(); err != nil {
			r.err = err
			continue
		}
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			doJob(ctx, st, scale, r, due, tr, ph, lane)
		}(i + 1)
	}
	wg.Wait()
	wall := time.Since(t0)
	tr.end(ph)
	return recs, wall
}

// doJob submits one job over HTTP, waits for it in-process and fetches its
// result bytes over HTTP.
func doJob(ctx context.Context, st *serveSetup, scale string, r *jobRec, due time.Time, tr *tracer, parent, lane int) {
	id := r.Key.String()
	jh := tr.begin("bench.job", parent, id, lane)
	defer tr.end(jh)
	defer func() { r.latency = time.Since(due) }()

	h := tr.begin("serve.submit", jh, id, lane)
	t := time.Now()
	js, err := st.client.Submit(ctx, r.Key.spec(scale))
	r.submit = time.Since(t)
	tr.end(h)
	if err != nil {
		r.err = err
		r.rejected = errors.Is(err, serveclient.ErrBusy)
		return
	}
	r.cached, r.coalesced = js.Cached, js.Coalesced
	job, err := st.srv.Get(js.ID)
	if err != nil {
		r.err = err
		return
	}
	r.job = job

	h = tr.begin("serve.wait", jh, id, lane)
	select {
	case <-job.Done():
	case <-ctx.Done():
		r.err = ctx.Err()
	}
	tr.end(h)
	if r.err != nil {
		return
	}

	h = tr.begin("serve.result", jh, id, lane)
	t = time.Now()
	body, err := st.client.Result(ctx, js.ID)
	r.result = time.Since(t)
	tr.end(h)
	if err != nil {
		r.err = err
		return
	}
	r.body = body
}

// checkServed counts one attempt per submission. A submission fails when it
// was rejected or failed, when its job degraded, when its result is not
// validated, or when its bytes differ from the first result for its key
// (every result-cache hit and coalesced job must be byte-identical to it).
// It returns the first result bytes per key.
func checkServed(srv *serve.Server, recs []jobRec, out *outcome) map[jobKey][]byte {
	first := map[jobKey][]byte{}
	for i := range recs {
		r := &recs[i]
		out.attempted++
		switch {
		case r.rejected:
			out.fail("%s rejected: %v", r.Key, r.err)
			continue
		case r.err != nil:
			out.fail("%s failed: %v", r.Key, r.err)
			continue
		case srv.Status(r.job).Degraded:
			out.fail("%s degraded", r.Key)
			continue
		case !bytes.Contains(r.body, servedValidated):
			out.fail("%s result is not validated", r.Key)
			continue
		}
		if b, seen := first[r.Key]; seen && !bytes.Equal(b, r.body) {
			out.fail("%s result differs from the key's first result", r.Key)
			continue
		} else if !seen {
			first[r.Key] = r.body
		}
		r.ok = true
	}
	return first
}

// distinctKeys lists the keys with a checked result in order of first
// arrival.
func distinctKeys(recs []jobRec, first map[jobKey][]byte) []jobKey {
	var keys []jobKey
	seen := map[jobKey]bool{}
	for _, r := range recs {
		if _, ok := first[r.Key]; ok && !seen[r.Key] {
			seen[r.Key] = true
			keys = append(keys, r.Key)
		}
	}
	return keys
}

// verifyServed recomputes a seeded sample of distinct keys the way a run job
// computes them (sim.RunPrecompiled, then cliutil.FprintResult) and fails
// every one whose bytes differ from what the server returned.
func verifyServed(seed int64, scale workloads.Scale, recs []jobRec, first map[jobKey][]byte, out *outcome) {
	keys := distinctKeys(recs, first)
	r := rand.New(rand.NewSource(seed))
	n := min(verifySample, len(keys))
	for _, i := range r.Perm(len(keys))[:n] {
		k := keys[i]
		out.attempted++
		got, err := recompute(scale, k)
		if err != nil {
			out.fail("recompute %s: %v", k, err)
		} else if !bytes.Equal(got, first[k]) {
			out.fail("recompute %s: served bytes differ", k)
		}
	}
}

// keyRun resolves a key the way the server plans a run job.
func keyRun(scale workloads.Scale, k jobKey) (*workloads.Workload, sim.Config, error) {
	w, err := cliutil.LookupWorkload(k.Workload, scale)
	if err != nil {
		return nil, sim.Config{}, err
	}
	cfg, err := cliutil.LookupConfig(k.Config)
	if err != nil {
		return nil, sim.Config{}, err
	}
	if k.GHz != 0 {
		cfg = cfg.WithClock(k.GHz)
	}
	cfg.Threads = k.Threads
	return w, cfg, nil
}

func recompute(scale workloads.Scale, k jobKey) ([]byte, error) {
	w, cfg, err := keyRun(scale, k)
	if err != nil {
		return nil, err
	}
	kernel := sim.ThreadKernel(w.Kernel, k.Threads)
	var compiled *compiler.Compiled
	if cfg.HasAccel() {
		if compiled, err = compiler.Compile(kernel, sim.CompileOptions(cfg)); err != nil {
			return nil, err
		}
	}
	res, err := sim.RunPrecompiled(kernel, w.Params, w.NewData(), cfg, compiled)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	cliutil.FprintResult(&buf, res)
	return buf.Bytes(), nil
}

// replayKeys replays every distinct key of the traced run serially through
// the public calls and checks each against the served bytes.
func replayKeys(ctx context.Context, tr *tracer, l *ledger, scale workloads.Scale, recs []jobRec,
	first map[jobKey][]byte, out *outcome) {
	cache := artifact.New(artifact.Config{})
	for _, k := range distinctKeys(recs, first) {
		id := k.String()
		out.attempted++
		if ctx.Err() != nil {
			out.fail("replay %s: %v", id, ctx.Err())
			continue
		}
		w, cfg, err := keyRun(scale, k)
		if err != nil {
			out.fail("replay %s: %v", id, err)
			continue
		}
		kernel := sim.ThreadKernel(w.Kernel, k.Threads)
		cell := tr.begin("bench.cell", -1, id, 0)
		g := tr.begin("workloads.NewData", cell, id, 0)
		data := w.NewData()
		gen := tr.end(g)
		l.gen += gen
		res, err := replayCell(tr, cell, id, l, cache, w.Name, scale.String(), kernel, w.Params, data, cfg)
		var buf bytes.Buffer
		if err == nil {
			h := tr.begin("cliutil.FprintResult", cell, id, 0)
			cliutil.FprintResult(&buf, res)
			l.render += tr.end(h)
		}
		l.cells = append(l.cells, (tr.end(cell) - gen).Seconds())
		switch {
		case err != nil:
			out.fail("replay %s: %v", id, err)
		case !bytes.Equal(buf.Bytes(), first[k]):
			out.fail("replay %s: served bytes differ", id)
		}
	}
}

// servedInstructions reads the simulated instruction count (host + accel)
// from a run job's rendered result.
func servedInstructions(body []byte) int64 {
	for _, line := range bytes.Split(body, []byte("\n")) {
		var host, accel int64
		if n, _ := fmt.Sscanf(string(line), "instructions %d host + %d accel", &host, &accel); n == 2 {
			return host + accel
		}
	}
	return 0
}
