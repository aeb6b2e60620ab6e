package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"distda/internal/artifact"
	"distda/internal/cliutil"
	"distda/internal/exp"
	"distda/internal/sim"
	"distda/internal/workloads"
)

// matrixBuild is one timed exp.Build plus RenderSelection.
type matrixBuild struct {
	m        *exp.Matrix
	rendered []byte
	events   []exp.ProgressEvent
	wall     time.Duration // Build + RenderSelection
	build    time.Duration
	render   time.Duration
}

// matrixSetup is what repro-matrix builds before its first timed call: the
// fresh artifact cache exp.Build uses, and the workloads and configurations
// its cells are checked against and the traced run replays.
type matrixSetup struct {
	scale workloads.Scale
	cache *artifact.Cache
	ws    []*workloads.Workload
	cfgs  []sim.Config
}

func newMatrixSetup(spec workloadSpec) (*matrixSetup, error) {
	scale, err := cliutil.ParseScale(spec.Scale)
	if err != nil {
		return nil, err
	}
	if err := spec.Selection.Validate(); err != nil {
		return nil, err
	}
	if !spec.Selection.NeedsMatrix() {
		return nil, fmt.Errorf("repro-matrix selection renders nothing from the matrix")
	}
	return &matrixSetup{scale, artifact.New(artifact.Config{}), workloads.All(scale), sim.AllPaperConfigs()}, nil
}

// runMatrix is the repro-matrix workload: one exp.Build of the paper matrix
// with Workers = nproc and a fresh in-memory artifact cache, then
// RenderSelection of every table built from the matrix. The traced run then
// replays the cells serially through the public calls to split the time by
// layer. The inputs come from the program's fixed generators, so the seed is
// recorded but changes nothing here.
func runMatrix(ctx context.Context, spec workloadSpec, tr *tracer) (*outcome, error) {
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	workers := runtime.NumCPU()
	out := newOutcome()

	h := tr.begin("bench.setup", -1, "run", 0)
	st, err := newMatrixSetup(spec)
	tr.end(h)
	if err != nil {
		return nil, err
	}

	out.attempted++ // the build and its render
	b, err := buildMatrix(ctx, st.scale, workers, st.cache, spec.Selection, tr)
	if err != nil {
		out.fail("exp.Build: %v", err)
		return out, nil
	}
	if err := checkDigest(b.rendered, spec.Digest); err != nil {
		out.fail("rendered selection: %v", err)
	}
	cellOK := checkCells(b.m, st.ws, st.cfgs, out)
	limit := time.Duration(spec.LatencyLimitMS * float64(time.Millisecond))
	var cellMS []float64
	good := 0
	for _, ev := range b.events {
		cellMS = append(cellMS, float64(ev.Dur)/float64(time.Millisecond))
		if cellOK[ev.Workload+"/"+ev.Config] && ev.Dur <= limit {
			good++
		}
	}

	if tr == nil {
		wall := b.wall.Seconds()
		out.set("wall_s", wall, "one Build+RenderSelection")
		out.set("sim_minstr_per_s", ratio(float64(matrixInstructions(b.m))/1e6, wall), "simulated instructions of all cells per wall second")
		out.setQ("job_p50_ms", tail(cellMS, 50))
		out.info = append(out.info, "job latency tail, reported but not gated: "+tail(cellMS, 95).ms())
		out.set("goodput_jobs_s", ratio(float64(good), wall), fmt.Sprintf("validated cells within %.0f ms", spec.LatencyLimitMS))
		out.set("max_rss_mb", maxRSSMB(), "")
		return out, nil
	}

	// Traced run: the per-layer ledger.
	l := newLedger()
	replayMatrix(ctx, tr, l, st.scale, st.ws, st.cfgs, b.m, out)
	l.report(out)
	busy := 0.0
	cellMax := 0.0
	for _, ev := range b.events {
		busy += ev.Dur.Seconds()
		cellMax = max(cellMax, ev.Dur.Seconds())
	}
	out.set("exp.busy_s", busy, fmt.Sprintf("sum of %d Progress cell durations at %d workers", len(b.events), workers))
	out.set("exp.worker_idle_s", float64(workers)*b.build.Seconds()-busy, "workers x Build wall - busy")
	out.set("exp.cell_max_s", cellMax, "")
	out.set("exp.parallel_slowdown", ratio(busy, sum(l.cells)), "busy / serial replay cell sum")
	out.set("report.render_s", b.render.Seconds(), "RenderSelection on the built matrix")
	cs := st.cache.Stats()
	rs := st.cache.ResultStats()
	out.set("artifact.compile_hit_ratio", ratio(float64(cs.MemHits+cs.DiskHits), float64(cs.Requests)),
		fmt.Sprintf("%d hits of %d requests", cs.MemHits+cs.DiskHits, cs.Requests))
	out.set("artifact.result_hit_ratio", ratio(float64(rs.MemHits+rs.DiskHits), float64(rs.Requests)), "no result cache on this path")
	for _, name := range serveLayerMetrics {
		out.set(name, 0, "the job server does no work here")
	}
	finishTrace(tr, out, ms0)
	return out, nil
}

// buildMatrix times one exp.Build and RenderSelection on a fresh cache.
func buildMatrix(ctx context.Context, scale workloads.Scale, workers int, cache *artifact.Cache,
	sel exp.Selection, tr *tracer) (*matrixBuild, error) {
	b := &matrixBuild{}
	var mu sync.Mutex
	var laneEnd []time.Time
	bh := tr.begin("exp.Build", -1, "run", 0)
	t0 := time.Now()
	m, err := exp.Build(ctx, exp.Options{
		Scale:   scale,
		Workers: workers,
		Cache:   cache,
		Progress: func(ev exp.ProgressEvent) {
			mu.Lock()
			defer mu.Unlock()
			b.events = append(b.events, ev)
			if tr == nil {
				return
			}
			// Place the cell on the first trace lane free at its start,
			// so overlapping cells of different workers do not nest.
			end := time.Now()
			start := end.Add(-ev.Dur)
			lane := 0
			for lane < len(laneEnd) && laneEnd[lane].After(start) {
				lane++
			}
			if lane == len(laneEnd) {
				laneEnd = append(laneEnd, end)
			}
			laneEnd[lane] = end
			tr.add("exp.cell", bh, ev.Workload+"/"+ev.Config, lane+1, start, end)
		},
	})
	b.build = time.Since(t0)
	tr.end(bh)
	if err != nil {
		return nil, err
	}
	b.m = m
	var buf bytes.Buffer
	rh := tr.begin("exp.RenderSelection", -1, "run", 0)
	t1 := time.Now()
	err = exp.RenderSelection(&buf, scale, sel, func() (*exp.Matrix, error) { return m, nil })
	b.render = time.Since(t1)
	tr.end(rh)
	b.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	b.rendered = buf.Bytes()
	return b, nil
}

// checkCells counts one attempt per matrix cell and fails every cell that
// degraded, is missing, or was not validated against the reference VM. It
// returns the cells that passed, keyed "workload/config".
func checkCells(m *exp.Matrix, ws []*workloads.Workload, cfgs []sim.Config, out *outcome) map[string]bool {
	ok := map[string]bool{}
	for _, w := range ws {
		for _, c := range cfgs {
			out.attempted++
			r := m.Res[w.Name][c.Name]
			switch {
			case m.Degraded[w.Name][c.Name] != "":
				out.fail("cell %s/%s degraded: %s", w.Name, c.Name, m.Degraded[w.Name][c.Name])
			case r == nil:
				out.fail("cell %s/%s has no result", w.Name, c.Name)
			case !r.Validated:
				out.fail("cell %s/%s was not validated", w.Name, c.Name)
			default:
				ok[w.Name+"/"+c.Name] = true
			}
		}
	}
	return ok
}

func matrixInstructions(m *exp.Matrix) int64 {
	var n int64
	for _, row := range m.Res {
		for _, r := range row {
			n += r.Instructions()
		}
	}
	return n
}

// checkDigest compares the SHA-256 of body with want ("sha256:<hex>").
func checkDigest(body []byte, want string) error {
	sum := sha256.Sum256(body)
	got := "sha256:" + hex.EncodeToString(sum[:])
	if !strings.EqualFold(got, want) {
		return fmt.Errorf("digest %s, want %s", got, want)
	}
	return nil
}

// replayMatrix re-runs every cell of the paper matrix serially through the
// public calls, in exp.Build's order so the seeded generators draw the same
// inputs, and checks each result equals the one Build produced.
func replayMatrix(ctx context.Context, tr *tracer, l *ledger, scale workloads.Scale, ws []*workloads.Workload,
	cfgs []sim.Config, built *exp.Matrix, out *outcome) {
	cache := artifact.New(artifact.Config{})
	for _, w := range ws {
		for _, cfg := range cfgs {
			id := w.Name + "/" + cfg.Name
			if ctx.Err() != nil {
				out.attempted++
				out.fail("replay %s: %v", id, ctx.Err())
				continue
			}
			cell := tr.begin("bench.cell", -1, id, 0)
			g := tr.begin("workloads.NewData", cell, id, 0)
			data := w.NewData()
			gen := tr.end(g)
			l.gen += gen
			res, err := replayCell(tr, cell, id, l, cache, w.Name, scale.String(), w.Kernel, w.Params, data, cfg)
			l.cells = append(l.cells, (tr.end(cell) - gen).Seconds())
			out.attempted++
			if err != nil {
				out.fail("replay %s: %v", id, err)
				continue
			}
			if want := built.Res[w.Name][cfg.Name]; want == nil || !reflect.DeepEqual(*res, *want) {
				out.fail("replay %s: result differs from exp.Build's", id)
			}
		}
	}
}

// finishTrace sets the whole-run metrics of a traced run.
func finishTrace(tr *tracer, out *outcome, ms0 runtime.MemStats) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.set("go.gc_cycles", float64(ms.NumGC-ms0.NumGC), "")
	out.set("go.alloc_mb", float64(ms.TotalAlloc-ms0.TotalAlloc)/(1<<20), "")
	out.set("bench.unattributed_s", (tr.elapsed() - tr.topLevel()).Seconds(), "traced wall minus top-level timed calls")
	out.set("bench.error_rate", ratio(float64(out.failed), float64(out.attempted)), "")
}
