package main

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
	"time"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, want, pct int
	}{
		{n: 2000, want: 99, pct: 99},
		{n: 1000, want: 99, pct: 99},
		{n: 999, want: 99, pct: 98},
		{n: 500, want: 99, pct: 98},
		{n: 72, want: 99, pct: 86},
		{n: 1200, want: 95, pct: 95},
		{n: 72, want: 95, pct: 86},
		{n: 72, want: 50, pct: 50},
		{n: 15, want: 99, pct: 50}, // never below the median
	} {
		samples := make([]float64, tc.n)
		for i := range samples {
			samples[i] = float64(tc.n - i) // unsorted, distinct
		}
		q := tail(samples, tc.want)
		if q.Pct != tc.pct || q.N != tc.n {
			t.Errorf("n=%d want p%d: got p%d of %d, want p%d of %d", tc.n, tc.want, q.Pct, q.N, tc.pct, tc.n)
		}
		beyond := 0
		for _, s := range samples {
			if s > q.Value {
				beyond++
			}
		}
		if q.Pct > 50 && beyond < minBeyond {
			t.Errorf("n=%d p%d: %d samples beyond %g, want at least %d", tc.n, q.Pct, beyond, q.Value, minBeyond)
		}
		// The reported percentile is the highest one that qualifies: one
		// percent more would leave fewer than minBeyond above it.
		if next := q.Pct + 1; q.Pct < tc.want && q.Pct > 50 && tc.n-(next*tc.n+99)/100 >= minBeyond {
			t.Errorf("n=%d: p%d also leaves %d samples beyond", tc.n, next, minBeyond)
		}
	}
	if q := tail(nil, 99); q.N != 0 || q.Value != 0 {
		t.Errorf("empty sample: got %+v", q)
	}
}

func testSpace() []jobKey {
	return keySpace([]string{"disparity", "tracking", "adi", "fdtd-2d", "cholesky", "seidel-2d",
		"pathfinder", "nw", "bfs", "pagerank", "pointer-chase", "pca"})
}

func TestScheduleIsSeeded(t *testing.T) {
	space := testSpace()
	for _, tc := range []struct {
		name      string
		rate      float64
		hot       int
		missShare float64
	}{
		{"cold", 150, 0, 1},
		{"hot", 400, 24, 0.05},
	} {
		a, err := makeSchedule(7, space, tc.rate, tc.hot, tc.missShare, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeSchedule(7, space, tc.rate, tc.hot, tc.missShare, 5*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different schedules", tc.name)
		}
		c, _ := makeSchedule(8, space, tc.rate, tc.hot, tc.missShare, 5*time.Second)
		if reflect.DeepEqual(a.Jobs, c.Jobs) || (tc.hot > 0 && reflect.DeepEqual(a.Hot, c.Hot)) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", tc.name)
		}
		if len(a.Hot) != tc.hot {
			t.Errorf("%s: hot set of %d, want %d", tc.name, len(a.Hot), tc.hot)
		}
		// Arrivals are in due order within the window, and a fresh key
		// is never repeated.
		seen := map[jobKey]bool{}
		var last time.Duration
		for _, j := range a.Jobs {
			if j.Due < last || j.Due >= 5*time.Second {
				t.Fatalf("%s: due %v out of order or window", tc.name, j.Due)
			}
			last = j.Due
			if !j.Hot {
				if seen[j.Key] {
					t.Fatalf("%s: fresh key %s repeated", tc.name, j.Key)
				}
				seen[j.Key] = true
			}
		}
		if want := tc.rate * 5; float64(len(a.Jobs)) < want*0.8 || float64(len(a.Jobs)) > want*1.2 {
			t.Errorf("%s: %d arrivals, want about %g", tc.name, len(a.Jobs), want)
		}
	}
}

func TestScheduleRejectsExhaustedKeySpace(t *testing.T) {
	if _, err := makeSchedule(1, testSpace()[:10], 100, 0, 1, time.Second); err == nil {
		t.Fatal("100 distinct arrivals from 10 keys: want an error")
	}
}

func TestDeclaredMetricNames(t *testing.T) {
	bf, _, err := loadDecls("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, list := range [][]metricDecl{bf.EndToEnd, bf.PerLayer} {
		for _, d := range list {
			if !metricName.MatchString(d.Name) {
				t.Errorf("metric %q uses characters outside [A-Za-z0-9_.-]", d.Name)
			}
		}
	}
	for _, bad := range []string{"job p99", "wall/s", "", ".hidden", "x\n"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
	// Every per-layer metric the code sets only on one kind of workload
	// is declared.
	declared := map[string]bool{}
	for _, d := range bf.PerLayer {
		declared[d.Name] = true
	}
	for _, name := range append(append([]string{}, serveLayerMetrics...), expLayerMetrics...) {
		if !declared[name] {
			t.Errorf("per-layer metric %s is not declared in BENCHMARK.json", name)
		}
	}
}

func TestDigestRejectsOneByteChange(t *testing.T) {
	body := []byte("Fig. 7 energy efficiency\nfdtd-2d  1.00  2.31\n")
	sum := sha256.Sum256(body)
	want := "sha256:" + hex.EncodeToString(sum[:])
	if err := checkDigest(body, want); err != nil {
		t.Fatalf("unchanged body: %v", err)
	}
	for i := range body {
		changed := append([]byte(nil), body...)
		changed[i] ^= 1
		if checkDigest(changed, want) == nil {
			t.Fatalf("byte %d flipped: digest check passed", i)
		}
	}
	if checkDigest(body[:len(body)-1], want) == nil {
		t.Fatal("truncated body: digest check passed")
	}
}

func TestServedInstructions(t *testing.T) {
	body := []byte("workload      bfs\nvalidated     true\ninstructions  1200 host + 34 accel, IPC 0.50\n")
	if got := servedInstructions(body); got != 1234 {
		t.Fatalf("got %d, want 1234", got)
	}
}
