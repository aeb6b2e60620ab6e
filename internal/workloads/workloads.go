// Package workloads defines the paper's twelve single-threaded benchmarks
// (Table IV), the spmv case study and the multithreaded variants, each as a
// kernel in the distda IR plus a seeded synthetic input generator.
//
// The original suites (SD-VBS, Polybench, Rodinia, MachSuite, CortexSuite)
// are C programs; these kernels reproduce their innermost-loop access
// patterns and compute structure — stencils, DP wavefronts, CSR
// indirection, pointer chasing, column-major sweeps — which is what
// differentiates the offload configurations. Input sizes come in three
// scales: the paper's (Table IV), a bench scale for the reproduction
// harness, and a small scale for CI.
package workloads

import (
	"fmt"
	"math/rand"

	"distda/internal/ir"
)

// Scale selects input sizing.
type Scale int

const (
	// ScaleTest: seconds-long full-matrix CI runs.
	ScaleTest Scale = iota
	// ScaleBench: the reproduction harness default.
	ScaleBench
	// ScalePaper: Table IV sizes (long runs).
	ScalePaper
)

func (s Scale) String() string {
	switch s {
	case ScaleTest:
		return "test"
	case ScaleBench:
		return "bench"
	default:
		return "paper"
	}
}

// pick returns the size for the current scale.
func (s Scale) pick(test, bench, paper int) int {
	switch s {
	case ScaleTest:
		return test
	case ScaleBench:
		return bench
	default:
		return paper
	}
}

// Workload bundles a kernel with parameters and input generation.
type Workload struct {
	Name   string
	Desc   string // Table IV input description
	Kernel *ir.Kernel
	Params map[string]float64
	Gen    func() map[string][]float64
}

// NewData draws the next input set from the workload's generator. Most
// generators draw from an RNG captured when the Workload is constructed,
// so successive calls on one Workload return successive, different draws;
// construct a new Workload to reproduce the first draw.
func (w *Workload) NewData() map[string][]float64 { return w.Gen() }

// paper lists the twelve paper benchmarks in Table VI order, each by its
// short name, so ByName constructs only the workload it is asked for.
var paper = []struct {
	name string
	mk   func(Scale) *Workload
}{
	{"disparity", Disparity},
	{"tracking", Tracking},
	{"adi", ADI},
	{"fdtd-2d", FDTD2D},
	{"cholesky", Cholesky},
	{"seidel-2d", Seidel2D},
	{"pathfinder", Pathfinder},
	{"nw", NW},
	{"bfs", BFS},
	{"pagerank", Pagerank},
	{"pointer-chase", PointerChase},
	{"pca", PCA},
}

// All returns the twelve paper benchmarks in Table VI order.
func All(s Scale) []*Workload {
	out := make([]*Workload, len(paper))
	for i, p := range paper {
		out[i] = p.mk(s)
	}
	return out
}

// ByName returns one paper workload by short name (Table VI mnemonics),
// constructing only that workload.
func ByName(name string, s Scale) (*Workload, error) {
	for _, p := range paper {
		if p.name == name {
			return p.mk(s), nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// rng returns a deterministic per-workload generator.
func rng(name string) *rand.Rand {
	var seed int64 = 1469598103934665603
	for _, c := range name {
		seed = seed*1099511628211 + int64(c)
	}
	return rand.New(rand.NewSource(seed))
}

func zeros(n int) []float64 { return make([]float64, n) }

func randInts(r *rand.Rand, n, max int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(r.Intn(max))
	}
	return out
}

func randUnit(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}

// csr generates a CSR graph with n nodes and roughly ef edges per node.
// Returns rowptr (n+1), col (rowptr[n]).
func csr(r *rand.Rand, n, ef int) (rowptr, col []float64) {
	rowptr = make([]float64, n+1)
	for v := 0; v < n; v++ {
		deg := 1 + r.Intn(2*ef-1) // mean ≈ ef
		rowptr[v+1] = rowptr[v] + float64(deg)
	}
	m := int(rowptr[n])
	col = make([]float64, m)
	for e := 0; e < m; e++ {
		col[e] = float64(r.Intn(n))
	}
	return rowptr, col
}
