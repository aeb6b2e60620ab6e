package main

import (
	"fmt"
	"math/rand"
	"time"

	"distda/internal/serve"
)

// jobKey is one run job's result-cache identity as the serve workloads vary
// it: workload × configuration × accelerator clock × software threads.
type jobKey struct {
	Workload string
	Config   string
	GHz      int // 0 = the configuration's own clock
	Threads  int
}

func (k jobKey) String() string {
	return fmt.Sprintf("%s/%s/%dGHz/%dt", k.Workload, k.Config, k.GHz, k.Threads)
}

func (k jobKey) spec(scale string) serve.JobSpec {
	return serve.JobSpec{Kind: serve.KindRun, Scale: scale, Workload: k.Workload,
		Config: k.Config, GHz: k.GHz, Threads: k.Threads}
}

// serveConfigs are the configuration names a run job accepts.
var serveConfigs = []string{"OoO", "Mono-CA", "Mono-DA-IO", "Mono-DA-F", "Dist-DA-IO",
	"Dist-DA-F", "Dist-DA-IO+SW", "Dist-DA-F+A", "Dist-DA-OffChip", "Dist-DA-PIM"}

// maxThreads bounds the thread axis. With 12 workloads, 10 configurations
// and 4 clocks it gives 3840 distinct keys, above the 3600 distinct
// submissions serve-cold's 60 jobs/s make on average in a 60 s run.
const maxThreads = 8

// keySpace lists every distinct key over the given workload names, in a
// fixed order.
func keySpace(workloadNames []string) []jobKey {
	var out []jobKey
	for _, w := range workloadNames {
		for _, c := range serveConfigs {
			for ghz := 0; ghz <= 3; ghz++ {
				for t := 1; t <= maxThreads; t++ {
					out = append(out, jobKey{Workload: w, Config: c, GHz: ghz, Threads: t})
				}
			}
		}
	}
	return out
}

// arrival is one submission of the open-loop schedule.
type arrival struct {
	Due time.Duration // since the start of the timed phase
	Key jobKey
	Hot bool // drawn from the hot set
}

// schedule is a seeded open-loop arrival plan.
type schedule struct {
	Hot  []jobKey
	Jobs []arrival
}

// makeSchedule draws Poisson arrivals at rate per second over dur. The hot
// set is the first hotKeys keys of a seeded permutation of space. Each
// arrival takes a fresh, never repeated key with probability missShare
// (always, when there is no hot set) and otherwise a uniformly drawn hot
// key. The same seed gives the same schedule.
func makeSchedule(seed int64, space []jobKey, rate float64, hotKeys int, missShare float64, dur time.Duration) (schedule, error) {
	if rate <= 0 || hotKeys < 0 || hotKeys > len(space) {
		return schedule{}, fmt.Errorf("bad schedule parameters: rate %g, hot set %d of %d keys", rate, hotKeys, len(space))
	}
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(len(space))
	s := schedule{}
	for _, i := range perm[:hotKeys] {
		s.Hot = append(s.Hot, space[i])
	}
	fresh := perm[hotKeys:]
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			break
		}
		a := arrival{Due: due}
		if hotKeys > 0 && r.Float64() >= missShare {
			a.Key, a.Hot = s.Hot[r.Intn(hotKeys)], true
		} else {
			if len(fresh) == 0 {
				return schedule{}, fmt.Errorf("key space of %d exhausted after %d arrivals", len(space), len(s.Jobs))
			}
			a.Key, fresh = space[fresh[0]], fresh[1:]
		}
		s.Jobs = append(s.Jobs, a)
	}
	return s, nil
}
