package serve

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"distda/internal/artifact"
)

// TestRunOneBuildsInputsFresh runs one plan of each stateful-generator
// workload twice, straight through the runner (no result cache), and
// checks that both executions render the distda-run bytes. Plans share
// their kernel and parameters through the template table; if runOne ever
// drew inputs from a shared Workload, the second execution would see the
// generator's second draw and differ.
func TestRunOneBuildsInputsFresh(t *testing.T) {
	r := &runner{cache: artifact.New(artifact.Config{})}
	for _, name := range []string{"fdtd-2d", "pointer-chase", "spmv"} {
		p, err := planJob(JobSpec{Workload: name, Config: "Dist-DA-F", Scale: "test"})
		if err != nil {
			t.Fatal(err)
		}
		want := directRun(t, name, "Dist-DA-F")
		for i := 1; i <= 2; i++ {
			got, err := r.run(context.Background(), p, nil, nil)
			if err != nil {
				t.Fatalf("%s execution %d: %v", name, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s execution %d differs from distda-run\n--- served\n%s\n--- direct\n%s", name, i, got, want)
			}
		}
	}
}

// TestSharedTemplateConcurrentRuns executes plans of one workload under
// several configurations at once. The plans share the template's kernel
// and parameter map, so this is the test that lets the race detector see
// concurrent compiles and simulations reading them.
func TestSharedTemplateConcurrentRuns(t *testing.T) {
	r := &runner{cache: artifact.New(artifact.Config{})}
	configs := []string{"OoO", "Mono-DA-F", "Dist-DA-IO", "Dist-DA-F"}
	want := make([][]byte, len(configs))
	for i, c := range configs {
		want[i] = directRun(t, "fdtd-2d", c)
	}
	var wg sync.WaitGroup
	for i, c := range configs {
		wg.Add(1)
		go func(i int, c string) {
			defer wg.Done()
			p, err := planJob(JobSpec{Workload: "fdtd-2d", Config: c, Scale: "test"})
			if err != nil {
				t.Error(err)
				return
			}
			got, err := r.run(context.Background(), p, nil, nil)
			if err != nil {
				t.Errorf("%s: %v", c, err)
				return
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("%s: served bytes differ from distda-run", c)
			}
		}(i, c)
	}
	wg.Wait()
}

// TestPlanJobAllocs bounds the allocations of planning a repeated run
// spec: a warm template means planning builds no workload, so it costs
// name resolution, one config and the result key — not the inputs.
func TestPlanJobAllocs(t *testing.T) {
	spec := JobSpec{Workload: "fdtd-2d", Config: "Dist-DA-F", Scale: "test"}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := planJob(spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 48 {
		t.Errorf("planJob = %.0f allocs per plan, want <= 48", allocs)
	}
}

// TestParamsOverrideLeavesTemplate checks that a params override plans
// into a private map: the shared template, and so every later plan of the
// same workload, keeps the stock parameters.
func TestParamsOverrideLeavesTemplate(t *testing.T) {
	stock, err := planJob(JobSpec{Workload: "fdtd-2d", Scale: "test"})
	if err != nil {
		t.Fatal(err)
	}
	over, err := planJob(JobSpec{Workload: "fdtd-2d", Scale: "test", Params: map[string]float64{"T": 99}})
	if err != nil {
		t.Fatal(err)
	}
	if over.params["T"] != 99 || over.key == stock.key {
		t.Fatalf("override not applied: params %v", over.params)
	}
	if stock.params["T"] == 99 {
		t.Error("params override wrote the shared template map")
	}
	again, err := planJob(JobSpec{Workload: "fdtd-2d", Scale: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if again.key != stock.key {
		t.Error("stock plan after an override has a different result key")
	}
}
