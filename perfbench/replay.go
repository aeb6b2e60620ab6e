package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"distda/internal/artifact"
	"distda/internal/compiler"
	"distda/internal/ir"
	"distda/internal/sim"
)

// ledger accumulates the per-layer numbers of a traced run's serial replay:
// host time per layer, and the simulated work counts, which must repeat
// exactly from run to run.
type ledger struct {
	gen, compile, sim, vm, render time.Duration
	simByBackend                  map[string]time.Duration
	compiles                      int
	allocBytes, allocs            uint64
	cells                         []float64 // seconds per replayed cell, input generation excluded

	cycles, launches, instructions, cacheAccesses, dramAccesses, nocBytes int64
}

// backends are the sim.run_s splits; "none" is the OoO host baseline.
var backends = []string{"none", "iocore", "cgra", "pimdram"}

func newLedger() *ledger {
	return &ledger{simByBackend: map[string]time.Duration{}}
}

// count adds a result's simulated work.
func (l *ledger) count(r *sim.Result) {
	l.cycles += r.Cycles
	l.launches += r.Launches
	l.instructions += r.Instructions()
	l.cacheAccesses += r.CacheL1 + r.CacheL2 + r.CacheL3
	l.dramAccesses += r.DRAM
	for _, b := range r.NoCBytes {
		l.nocBytes += b
	}
}

// report sets the ledger's metrics on o.
func (l *ledger) report(o *outcome) {
	o.set("workloads.gen_s", l.gen.Seconds(), "NewData calls")
	o.set("compiler.compile_s", l.compile.Seconds(), "compiler.Compile through the artifact cache")
	o.set("compiler.compiles", float64(l.compiles), "")
	o.set("sim.run_s", l.sim.Seconds(), "RunPrecompiled, validation off")
	for _, b := range backends {
		o.set("sim.run_s."+b, l.simByBackend[b].Seconds(), "")
	}
	o.set("sim.ns_per_cycle", ratio(float64(l.sim.Nanoseconds()), float64(l.cycles)), "host ns per simulated cycle")
	o.set("sim.alloc_mb", float64(l.allocBytes)/(1<<20), "MemStats.TotalAlloc delta around RunPrecompiled")
	o.set("sim.allocs", float64(l.allocs), "MemStats.Mallocs delta around RunPrecompiled")
	o.set("sim.cycles", float64(l.cycles), "")
	o.set("sim.launches", float64(l.launches), "")
	o.set("sim.instructions", float64(l.instructions), "")
	o.set("cache.accesses", float64(l.cacheAccesses), "L1+L2+L3")
	o.set("dram.accesses", float64(l.dramAccesses), "")
	o.set("noc.bytes", float64(l.nocBytes), "")
	o.set("ir.vm_s", l.vm.Seconds(), "ProgramFor + Program.Run")
}

func backendOf(cfg sim.Config) string {
	if cfg.Backend == "" {
		return "none"
	}
	return cfg.Backend
}

// replayCell runs one simulation through the public calls the program makes
// for it, each timed as its own span under parent: the compile through the
// artifact cache, sim.RunPrecompiled with validation off, and the reference
// run (ir.ProgramFor + Program.Run) followed by the comparison the simulator
// itself performs when validating. data is consumed by the reference run.
func replayCell(tr *tracer, parent int, id string, l *ledger, cache *artifact.Cache,
	workload, scale string, k *ir.Kernel, params map[string]float64,
	data map[string][]float64, cfg sim.Config) (*sim.Result, error) {
	var compiled *compiler.Compiled
	if cfg.HasAccel() {
		copts := sim.CompileOptions(cfg)
		h := tr.begin("artifact.GetOrCompile", parent, id, 0)
		var err error
		compiled, err = cache.GetOrCompile(artifact.Key(workload, scale, k, copts), k,
			func() (*compiler.Compiled, error) {
				c := tr.begin("compiler.Compile", h, id, 0)
				defer func() { l.compile += tr.end(c); l.compiles++ }()
				return compiler.Compile(k, copts)
			})
		tr.end(h)
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
	}

	simData := cloneData(data)
	cfg.ValidateEvery = false
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := tr.begin("sim.RunPrecompiled", parent, id, 0)
	res, err := sim.RunPrecompiled(k, params, simData, cfg, compiled)
	d := tr.end(h)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	l.sim += d
	l.simByBackend[backendOf(cfg)] += d
	l.allocBytes += after.TotalAlloc - before.TotalAlloc
	l.allocs += after.Mallocs - before.Mallocs

	h = tr.begin("ir.Program.Run", parent, id, 0)
	prog, err := ir.ProgramFor(k)
	if err == nil {
		_, err = prog.Run(params, data, nil)
	}
	l.vm += tr.end(h)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if err := sameData(simData, data); err != nil {
		return nil, err
	}
	res.Validated = true
	l.count(res)
	return res, nil
}

// sameData applies the simulator's validation rule: every reference object
// exists with the same length, and each value matches to a relative 1e-9.
func sameData(got, want map[string][]float64) error {
	for name, w := range want {
		g, ok := got[name]
		if !ok || len(g) != len(w) {
			return fmt.Errorf("object %q missing or mis-sized in simulated memory", name)
		}
		for i := range w {
			if g[i] == w[i] {
				continue
			}
			if math.Abs(g[i]-w[i]) > 1e-9*math.Max(math.Max(math.Abs(g[i]), math.Abs(w[i])), 1) {
				return fmt.Errorf("object %q diverges at [%d]: got %g, want %g", name, i, g[i], w[i])
			}
		}
	}
	return nil
}

func cloneData(data map[string][]float64) map[string][]float64 {
	out := make(map[string][]float64, len(data))
	for k, v := range data {
		out[k] = append([]float64(nil), v...)
	}
	return out
}
