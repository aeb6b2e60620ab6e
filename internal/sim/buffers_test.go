package sim

import (
	"fmt"
	"testing"

	"distda/internal/profile"
	"distda/internal/workloads"
)

// TestBufferRecyclingKeepsAccounting runs multi-launch kernels, whose
// launches reuse access-unit buffers released by earlier launches, and
// pins what the buffers feed into: DataMovedBytes, the profile's
// au/buffers events, and the occupancy queues. The pinned figures were
// taken when every launch still allocated fresh buffers. Queue names must
// number buffers run-globally (buf0..bufN-1 over all launches), not per
// launch, and every push must still reach its queue.
func TestBufferRecyclingKeepsAccounting(t *testing.T) {
	cases := []struct {
		workload string
		cfg      Config
		shards   int
		launches int64
		moved    int64 // Result.DataMovedBytes
		events   int64 // au/buffers events: pushes + pops
		queues   int   // buf%d occupancy queues
		samples  int64 // occupancy samples: pushes
	}{
		{"fdtd-2d", DistDAF(), 1, 140, 822840, 61266, 838, 29246},
		{"fdtd-2d", MonoDAF(), 1, 140, 635352, 38018, 466, 17622},
		{"cholesky", DistDAFA(), 1, 276, 282736, 9700, 486, 5376},
		{"pagerank", DistDAIO(), 1, 128, 402024, 16380, 1920, 8190},
		{"pagerank", DistDAFA(), 4, 128, 439016, 17472, 2048, 8736},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%s/shards=%d", tc.workload, tc.cfg.Name, tc.shards), func(t *testing.T) {
			w, err := workloads.ByName(tc.workload, workloads.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Shards = tc.shards
			cfg.Profile = profile.New()
			res, err := Run(w.Kernel, w.Params, w.NewData(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Launches != tc.launches || res.DataMovedBytes != tc.moved {
				t.Errorf("launches %d, DataMovedBytes %d; want %d, %d",
					res.Launches, res.DataMovedBytes, tc.launches, tc.moved)
			}
			var events int64
			for _, c := range cfg.Profile.Components() {
				if c.Kind == "au" && c.Name == "buffers" {
					events = c.Events
				}
			}
			if events != tc.events {
				t.Errorf("au/buffers events %d, want %d", events, tc.events)
			}
			seen := map[string]bool{}
			var samples int64
			for _, q := range cfg.Profile.Queues() {
				if q.Kind == "buffer" {
					seen[q.Name] = true
					samples += q.Hist().N
				}
			}
			if len(seen) != tc.queues || samples != tc.samples {
				t.Errorf("%d buffer queues with %d samples, want %d with %d", len(seen), samples, tc.queues, tc.samples)
			}
			for i := 0; i < len(seen); i++ {
				if !seen[fmt.Sprintf("buf%d", i)] {
					t.Fatalf("buffer queue names are not buf0..buf%d: buf%d missing", len(seen)-1, i)
				}
			}
		})
	}
}
