package serve_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"distda/internal/serve"
	"distda/internal/serveclient"
)

// benchServer starts a job server behind httptest and returns a client
// for it plus a stop function.
func benchServer(b *testing.B) (*serveclient.Client, func()) {
	b.Helper()
	s, err := serve.NewServer(serve.Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return serveclient.New(ts.URL), func() {
		ts.Close()
		s.Shutdown(context.Background())
	}
}

// roundTrip is one served job as a client sees it: submit, wait for the
// terminal state, fetch the result.
func roundTrip(b *testing.B, c *serveclient.Client, spec serve.JobSpec) {
	ctx := context.Background()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		b.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, nil); err != nil {
		b.Fatal(err)
	}
	if st.State != serve.StateDone {
		b.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
	}
	if _, err := c.Result(ctx, st.ID); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServeSubmitHit times a result-cache hit end to end over HTTP:
// the job is computed once before the timer starts, so every timed round
// trip plans, finds the cached result and serves it.
func BenchmarkServeSubmitHit(b *testing.B) {
	c, stop := benchServer(b)
	defer stop()
	spec := serve.JobSpec{Workload: "fdtd-2d", Config: "Dist-DA-F", Scale: "test"}
	roundTrip(b, c, spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, c, spec)
	}
}

// BenchmarkServeSubmitMiss times a result-cache miss end to end over HTTP:
// each round trip takes a distinct key from config × clock × threads, so
// the server plans, queues, compiles (or reuses a compilation), simulates
// and renders. When the keys run out the server is replaced, untimed, so
// the next pass misses again.
func BenchmarkServeSubmitMiss(b *testing.B) {
	var specs []serve.JobSpec
	for _, cfg := range []string{"OoO", "Mono-CA", "Mono-DA-IO", "Mono-DA-F", "Dist-DA-IO", "Dist-DA-F"} {
		for _, ghz := range []int{0, 1, 2, 3} {
			for _, threads := range []int{1, 2} {
				specs = append(specs, serve.JobSpec{Workload: "fdtd-2d", Config: cfg, GHz: ghz, Threads: threads, Scale: "test"})
			}
		}
	}
	c, stop := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(specs) == 0 {
			b.StopTimer()
			stop()
			c, stop = benchServer(b)
			b.StartTimer()
		}
		roundTrip(b, c, specs[i%len(specs)])
	}
	b.StopTimer()
	stop()
}
