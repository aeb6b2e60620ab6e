package fifo

import (
	"testing"
	"testing/quick"
)

// TestQueueMatchesSlice drives a Queue and a plain slice FIFO with the same
// random push/pop sequence, across ring growth and wrap-around.
func TestQueueMatchesSlice(t *testing.T) {
	f := func(ops []uint8) bool {
		var q Queue[int]
		var ref []int
		next := 0
		for _, op := range ops {
			if op%3 != 0 || len(ref) == 0 {
				q.Push(next)
				ref = append(ref, next)
				next++
			} else {
				if *q.Front() != ref[0] {
					return false
				}
				q.Pop()
				ref = ref[1:]
			}
			if q.Len() != len(ref) {
				return false
			}
			if len(ref) > 0 && (*q.Front() != ref[0] || *q.Back() != ref[len(ref)-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueSteadyStateAllocs pins the property the simulator relies on: a
// queue cycling at bounded occupancy allocates nothing.
func TestQueueSteadyStateAllocs(t *testing.T) {
	var q Queue[[2]int64]
	for i := 0; i < 5; i++ {
		q.Push([2]int64{int64(i)})
	}
	// AllocsPerRun reports the integer mean per run, so each run cycles
	// many elements: an amortized reallocation must still show.
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 256; i++ {
			q.Push([2]int64{1, 2})
			q.Front()[1]++
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f times per 256 cycles, want 0", allocs)
	}
}

func TestQueueEmptyPanics(t *testing.T) {
	for name, f := range map[string]func(q *Queue[int]){
		"Front": func(q *Queue[int]) { q.Front() },
		"Back":  func(q *Queue[int]) { q.Back() },
		"Pop":   func(q *Queue[int]) { q.Pop() },
	} {
		t.Run(name, func(t *testing.T) {
			var q Queue[int]
			q.Push(1)
			q.Pop()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on an empty queue did not panic", name)
				}
			}()
			f(&q)
		})
	}
}
