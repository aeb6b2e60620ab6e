package accessunit

import (
	"testing"

	"distda/internal/energy"
)

// The streamed-element paths must allocate nothing in steady state with
// tracing off: every allocation there is paid once per simulated element
// across the whole paper matrix.

func TestLocalWireSteadyStateAllocs(t *testing.T) {
	var w LocalWire
	for i := 0; i < linkCredits; i++ { // fill to the link's in-flight bound
		w.Send(LinkMsg{At: int64(i), Kind: LinkElem, Val: float64(i)})
	}
	var at int64 = linkCredits
	// AllocsPerRun reports the integer mean per run, so each run cycles
	// many messages: an amortized reallocation must still show.
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 256; i++ {
			w.Send(LinkMsg{At: at, Kind: LinkElem, Val: 1})
			at++
			if _, ok := w.Head(); !ok {
				t.Fatal("wire empty")
			}
			w.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("LocalWire Send/Head/Pop allocates %.1f times per 256 messages, want 0", allocs)
	}
}

func TestStreamInSteadyStateAllocs(t *testing.T) {
	const n = 1 << 16
	mem := newFakeMem(8, map[string][]float64{"A": make([]float64, n)})
	meter := energy.NewMeter(energy.Default32nm())
	buf, _ := NewBuffer(16, meter)
	r := buf.AttachReader(0)
	fsm, err := NewStreamIn(buf, mem, &fakeFetch{lat: 10}, 0, "A", 0, 1, n, &Stats{}, meter)
	if err != nil {
		t.Fatal(err)
	}
	var now int64
	cycle := func() {
		fsm.Step(now)
		now++
		for buf.CanPop(r) {
			buf.Pop(r)
		}
	}
	// Warm up past the first maxInflight lines, so every slot has been
	// used once and the ring has wrapped.
	for fsm.issued < 2*maxInflight*8 {
		cycle()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			cycle()
		}
	})
	if fsm.Done() {
		t.Fatal("stream ended during the measurement; lengthen it")
	}
	if allocs != 0 {
		t.Fatalf("StreamIn fill allocates %.1f times per 32 cycles, want 0", allocs)
	}
}

func TestStreamOutSteadyStateAllocs(t *testing.T) {
	const n = 1 << 16
	mem := newFakeMem(8, map[string][]float64{"B": make([]float64, n)})
	buf, _ := NewBuffer(16, nil)
	fsm, err := NewStreamOut(buf, mem, &fakeFetch{lat: 10}, 0, "B", 0, 1, &Stats{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var now int64
	cycle := func() {
		for buf.CanPush() {
			buf.Push(1)
		}
		fsm.Step(now)
		now++
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			cycle()
		}
	})
	if allocs != 0 {
		t.Fatalf("StreamOut drain allocates %.1f times per 32 cycles, want 0", allocs)
	}
}
