package accessunit

import (
	"fmt"
	"testing"
	"testing/quick"

	"distda/internal/energy"
	"distda/internal/noc"
)

// fakeMem is an in-process Memory over named slices laid out contiguously.
type fakeMem struct {
	objs  map[string][]float64
	base  map[string]int64
	elemB int
}

func newFakeMem(elemB int, objs map[string][]float64) *fakeMem {
	m := &fakeMem{objs: objs, base: map[string]int64{}, elemB: elemB}
	addr := int64(0)
	for name, s := range objs {
		m.base[name] = addr
		addr += int64(len(s)*elemB) + 4096
	}
	return m
}

func (m *fakeMem) check(obj string, idx int64) error {
	s, ok := m.objs[obj]
	if !ok {
		return fmt.Errorf("no object %q", obj)
	}
	if idx < 0 || idx >= int64(len(s)) {
		return fmt.Errorf("index %d out of range for %q", idx, obj)
	}
	return nil
}

func (m *fakeMem) Read(obj string, idx int64) (float64, error) {
	if err := m.check(obj, idx); err != nil {
		return 0, err
	}
	return m.objs[obj][idx], nil
}

func (m *fakeMem) Write(obj string, idx int64, v float64) error {
	if err := m.check(obj, idx); err != nil {
		return err
	}
	m.objs[obj][idx] = v
	return nil
}

func (m *fakeMem) AddrOf(obj string, idx int64) (int64, error) {
	if err := m.check(obj, idx); err != nil {
		return 0, err
	}
	return m.base[obj] + idx*int64(m.elemB), nil
}

func (m *fakeMem) ElemBytes(obj string) (int, error) {
	if _, ok := m.objs[obj]; !ok {
		return 0, fmt.Errorf("no object %q", obj)
	}
	return m.elemB, nil
}

// fakeFetch returns a fixed latency and counts accesses.
type fakeFetch struct {
	lat      int
	accesses int
	bytes    int
}

func (f *fakeFetch) Access(cluster int, addr int64, write bool, bytes int) int {
	f.accesses++
	f.bytes += bytes
	return f.lat
}
func (f *fakeFetch) LineBytes() int { return 64 }

func TestBufferBasics(t *testing.T) {
	b, err := NewBuffer(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := b.AttachReader(0)
	if b.CanPop(r) {
		t.Fatal("empty buffer CanPop")
	}
	for i := 0; i < 4; i++ {
		if !b.CanPush() {
			t.Fatalf("CanPush false at %d", i)
		}
		b.Push(float64(i))
	}
	if b.CanPush() {
		t.Fatal("full buffer CanPush")
	}
	for i := 0; i < 4; i++ {
		if got := b.Pop(r); got != float64(i) {
			t.Fatalf("Pop = %g, want %d", got, i)
		}
	}
	if b.Pushes != 4 || b.Pops != 4 {
		t.Fatal("counters")
	}
}

func TestBufferRejectsZeroCap(t *testing.T) {
	if _, err := NewBuffer(0, nil); err == nil {
		t.Fatal("zero cap accepted")
	}
}

func TestBufferMultiReaderWindow(t *testing.T) {
	b, _ := NewBuffer(8, nil)
	r0 := b.AttachReader(0) // accessor A[i]
	r2 := b.AttachReader(2) // accessor A[i+2]
	for i := 0; i < 8; i++ {
		b.Push(float64(i * 10))
	}
	// r2's first element is seq 2.
	if got := b.Pop(r2); got != 20 {
		t.Fatalf("offset reader first pop = %g, want 20", got)
	}
	// Space reclaimed only past the slowest reader (r0 still at seq 0).
	if b.CanPush() {
		t.Fatal("CanPush before slowest reader advanced past seq 0")
	}
	if got := b.Pop(r0); got != 0 {
		t.Fatalf("base reader first pop = %g, want 0", got)
	}
	if !b.CanPush() {
		t.Fatal("no space after slowest reader advanced")
	}
}

func TestBufferCloseAndDrained(t *testing.T) {
	b, _ := NewBuffer(2, nil)
	r := b.AttachReader(0)
	b.Push(1)
	b.Close()
	if b.Drained(r) {
		t.Fatal("drained with element left")
	}
	if b.Pop(r) != 1 {
		t.Fatal("pop after close")
	}
	if !b.Drained(r) {
		t.Fatal("not drained after close+empty")
	}
	if b.CanPush() {
		t.Fatal("CanPush after Close")
	}
}

func TestBufferSkip(t *testing.T) {
	b, _ := NewBuffer(8, nil)
	r := b.AttachReader(0)
	for i := 0; i < 5; i++ {
		b.Push(float64(i))
	}
	b.Skip(r, 3)
	if got := b.Pop(r); got != 3 {
		t.Fatalf("pop after skip = %g, want 3", got)
	}
}

func TestBufferEnergyMetered(t *testing.T) {
	m := energy.NewMeter(energy.Default32nm())
	b, _ := NewBuffer(4, m)
	r := b.AttachReader(0)
	b.Push(1)
	b.Pop(r)
	if got := m.Get(energy.CatBuffer); got != 2*m.Table.BufferPJ {
		t.Fatalf("buffer energy = %g", got)
	}
}

// Property: interleaved push/pop sequences preserve FIFO order per reader
// and never exceed capacity.
func TestBufferFIFOProperty(t *testing.T) {
	f := func(ops []bool, capRaw uint8) bool {
		capElems := 1 + int(capRaw%16)
		b, err := NewBuffer(capElems, nil)
		if err != nil {
			return false
		}
		r := b.AttachReader(0)
		var pushed, popped int64
		for _, isPush := range ops {
			if isPush && b.CanPush() {
				b.Push(float64(pushed))
				pushed++
			} else if !isPush && b.CanPop(r) {
				if b.Pop(r) != float64(popped) {
					return false
				}
				popped++
			}
			if b.Occupancy() > int64(capElems) || b.Occupancy() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the cached reclaim watermark always equals a fresh scan of
// the reader pointers, across random attach/pop/skip/push interleavings.
// A buffer recycled with Reset after a random history of its own runs the
// same operations in lockstep and must behave exactly like the fresh one:
// same admissions, same popped values, same levels, counters and energy.
func TestBufferWatermarkInvariant(t *testing.T) {
	f := func(ops, history []uint8, capRaw uint8) bool {
		capElems := 2 + int(capRaw%16)
		fresh := newDriven(capElems, energy.NewMeter(energy.Default32nm()))
		old := energy.NewMeter(energy.Default32nm())
		recycled := newDriven(capElems, old)
		for _, op := range history {
			recycled.apply(op)
		}
		if len(history)%3 == 0 {
			recycled.b.Close()
		}
		oldPJ := old.Get(energy.CatBuffer)
		recycled.b.Reset(energy.NewMeter(energy.Default32nm()))
		recycled.readers, recycled.next = nil, 0
		recycled.attach(0)
		for i, op := range ops {
			if fresh.apply(op) != recycled.apply(op) {
				return false
			}
			for _, d := range []*driven{fresh, recycled} {
				if d.b.minSeq != d.scan() {
					return false
				}
			}
			if i == len(ops)-1 {
				fresh.b.Close()
				recycled.b.Close()
			}
			if fresh.observe() != recycled.observe() {
				return false
			}
		}
		return old.Get(energy.CatBuffer) == oldPJ // the old meter sees nothing after Reset
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// driven is a buffer under a random operation sequence, with its readers.
type driven struct {
	b       *Buffer
	readers []int
	next    int64 // value of the next push
}

func newDriven(capElems int, m *energy.Meter) *driven {
	b, err := NewBuffer(capElems, m)
	if err != nil {
		panic(err)
	}
	d := &driven{b: b}
	d.attach(0)
	return d
}

func (d *driven) attach(seq int64) { d.readers = append(d.readers, d.b.AttachReader(seq)) }

// scan is the watermark recomputed by a full pass over the readers.
func (d *driven) scan() int64 {
	if len(d.b.readers) == 0 {
		return 0
	}
	m := d.b.readers[0]
	for _, r := range d.b.readers[1:] {
		if r < m {
			m = r
		}
	}
	return m
}

// apply performs one push, pop, skip or attach, returning what it saw (the
// popped value, or -1).
func (d *driven) apply(op uint8) float64 {
	switch op % 4 {
	case 0:
		if d.b.CanPush() {
			d.b.Push(float64(d.next))
			d.next++
		}
	case 1:
		r := d.readers[int(op/4)%len(d.readers)]
		if d.b.CanPop(r) {
			return d.b.Pop(r)
		}
	case 2:
		r := d.readers[int(op/4)%len(d.readers)]
		if n := d.b.Level(r) / 2; n > 0 {
			d.b.Skip(r, n)
		}
	case 3:
		if len(d.readers) < 4 {
			d.attach(d.scan())
		}
	}
	return -1
}

// bufState is the buffer's externally observable state.
type bufState struct {
	canPush, closed       bool
	occupancy, pushes     int64
	pops                  int64
	levels, drained       [4]int64
	energy                float64
	readerCount, capacity int
}

func (d *driven) observe() bufState {
	s := bufState{
		canPush: d.b.CanPush(), closed: d.b.Closed(), occupancy: d.b.Occupancy(),
		pushes: d.b.Pushes, pops: d.b.Pops, energy: d.b.meter.Get(energy.CatBuffer),
		readerCount: len(d.readers), capacity: d.b.Cap(),
	}
	for i, r := range d.readers {
		s.levels[i] = d.b.Level(r)
		if d.b.Drained(r) {
			s.drained[i] = 1
		}
	}
	return s
}

func TestStreamInDeliversInOrder(t *testing.T) {
	data := make([]float64, 64)
	for i := range data {
		data[i] = float64(i) * 1.5
	}
	mem := newFakeMem(8, map[string][]float64{"A": data})
	fetch := &fakeFetch{lat: 10}
	stats := &Stats{}
	buf, _ := NewBuffer(16, nil)
	r := buf.AttachReader(0)
	fsm, err := NewStreamIn(buf, mem, fetch, 0, "A", 0, 1, 64, stats, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for now := int64(0); now < 10000 && len(got) < 64; now++ {
		fsm.Step(now)
		for buf.CanPop(r) {
			got = append(got, buf.Pop(r))
		}
	}
	if len(got) != 64 {
		t.Fatalf("delivered %d elements", len(got))
	}
	for i, v := range got {
		if v != float64(i)*1.5 {
			t.Fatalf("elem %d = %g", i, v)
		}
	}
	// 64 elements x 8 B = 8 lines; D-A should be 8 lines x 64 B.
	if stats.DABytes != 8*64 {
		t.Fatalf("DABytes = %d, want 512", stats.DABytes)
	}
	if fetch.accesses != 8 {
		t.Fatalf("line fetches = %d, want 8", fetch.accesses)
	}
	if !fsm.Done() || !buf.Drained(r) {
		t.Fatal("stream not closed")
	}
}

func TestStreamInStridedLargeSkipsLines(t *testing.T) {
	data := make([]float64, 256)
	mem := newFakeMem(8, map[string][]float64{"A": data})
	fetch := &fakeFetch{lat: 5}
	stats := &Stats{}
	buf, _ := NewBuffer(16, nil)
	r := buf.AttachReader(0)
	// Stride 16 elements = 128 B: every element on its own line.
	fsm, err := NewStreamIn(buf, mem, fetch, 0, "A", 0, 16, 16, stats, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for now := int64(0); now < 10000 && n < 16; now++ {
		fsm.Step(now)
		for buf.CanPop(r) {
			buf.Pop(r)
			n++
		}
	}
	if fetch.accesses != 16 {
		t.Fatalf("line fetches = %d, want 16", fetch.accesses)
	}
}

func TestStreamInReverse(t *testing.T) {
	data := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	mem := newFakeMem(8, map[string][]float64{"A": data})
	stats := &Stats{}
	buf, _ := NewBuffer(8, nil)
	r := buf.AttachReader(0)
	fsm, err := NewStreamIn(buf, mem, &fakeFetch{lat: 3}, 0, "A", 7, -1, 8, stats, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for now := int64(0); now < 10000 && len(got) < 8; now++ {
		fsm.Step(now)
		for buf.CanPop(r) {
			got = append(got, buf.Pop(r))
		}
	}
	for i, v := range got {
		if v != float64(7-i) {
			t.Fatalf("reverse elem %d = %g", i, v)
		}
	}
}

func TestStreamInZeroStrideRejected(t *testing.T) {
	mem := newFakeMem(8, map[string][]float64{"A": make([]float64, 8)})
	buf, _ := NewBuffer(8, nil)
	if _, err := NewStreamIn(buf, mem, &fakeFetch{}, 0, "A", 0, 0, 8, &Stats{}, nil); err == nil {
		t.Fatal("zero stride accepted")
	}
}

func TestStreamOutWritesBack(t *testing.T) {
	out := make([]float64, 32)
	mem := newFakeMem(8, map[string][]float64{"B": out})
	fetch := &fakeFetch{lat: 8}
	stats := &Stats{}
	buf, _ := NewBuffer(8, nil)
	fsm, err := NewStreamOut(buf, mem, fetch, 0, "B", 0, 1, stats, nil)
	if err != nil {
		t.Fatal(err)
	}
	produced := 0
	for now := int64(0); now < 10000 && !fsm.Done(); now++ {
		if produced < 32 && buf.CanPush() {
			buf.Push(float64(produced * 3))
			produced++
		}
		if produced == 32 && !buf.Closed() {
			buf.Close()
		}
		fsm.Step(now)
	}
	if !fsm.Done() {
		t.Fatal("drain did not finish")
	}
	for i := 0; i < 32; i++ {
		if out[i] != float64(i*3) {
			t.Fatalf("B[%d] = %g", i, out[i])
		}
	}
	// 32 x 8 B = 4 lines.
	if stats.DABytes != 4*64 {
		t.Fatalf("DABytes = %d, want 256", stats.DABytes)
	}
}

func TestLinkMovesDataAndCloses(t *testing.T) {
	meter := energy.NewMeter(energy.Default32nm())
	mesh := noc.New(noc.DefaultConfig(), meter)
	stats := &Stats{}
	src, _ := NewBuffer(8, nil)
	dst, _ := NewBuffer(8, nil)
	rd := dst.AttachReader(0)
	tx, rx := NewLocalLink(src, dst, mesh, 0, 3, 8, stats)

	for i := 0; i < 8; i++ {
		src.Push(float64(i))
	}
	src.Close()
	var got []float64
	for now := int64(0); now < 1000 && !(tx.Done() && rx.Done()); now++ {
		tx.Step(now)
		rx.Step(now)
		for dst.CanPop(rd) {
			got = append(got, dst.Pop(rd))
		}
	}
	if len(got) != 8 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("elem %d = %g", i, v)
		}
	}
	if !dst.Closed() {
		t.Fatal("close not propagated")
	}
	if stats.AABytes != 64 {
		t.Fatalf("AABytes = %d, want 64", stats.AABytes)
	}
	if mesh.Bytes[noc.AccData] != 64 {
		t.Fatalf("NoC acc_data = %d", mesh.Bytes[noc.AccData])
	}
	if mesh.Bytes[noc.AccCtrl] == 0 {
		t.Fatal("no credit control traffic")
	}
}

func TestLinkColocatedNoAATraffic(t *testing.T) {
	mesh := noc.New(noc.DefaultConfig(), nil)
	stats := &Stats{}
	src, _ := NewBuffer(4, nil)
	dst, _ := NewBuffer(4, nil)
	rd := dst.AttachReader(0)
	tx, rx := NewLocalLink(src, dst, mesh, 2, 2, 8, stats)
	src.Push(42)
	src.Close()
	for now := int64(0); now < 100 && !(tx.Done() && rx.Done()); now++ {
		tx.Step(now)
		rx.Step(now)
		for dst.CanPop(rd) {
			dst.Pop(rd)
		}
	}
	if stats.AABytes != 0 {
		t.Fatalf("co-located AABytes = %d", stats.AABytes)
	}
}

func TestLinkBackPressure(t *testing.T) {
	mesh := noc.New(noc.DefaultConfig(), nil)
	stats := &Stats{}
	src, _ := NewBuffer(64, nil)
	dst, _ := NewBuffer(2, nil) // tiny consumer buffer
	tx, rx := NewLocalLink(src, dst, mesh, 0, 1, 8, stats)
	for i := 0; i < 32; i++ {
		src.Push(float64(i))
	}
	for now := int64(0); now < 50; now++ {
		tx.Step(now)
		rx.Step(now)
	}
	// Consumer never pops: at most cap(dst) may be delivered or in flight.
	if dst.Occupancy() > 2 {
		t.Fatalf("dst over capacity: %d", dst.Occupancy())
	}
	if src.Level(0) == 0 {
		t.Fatal("back-pressure ignored: src fully drained")
	}
}

func TestRandomPort(t *testing.T) {
	mem := newFakeMem(8, map[string][]float64{"A": {5, 6, 7}})
	fetch := &fakeFetch{lat: 12}
	stats := &Stats{}
	meter := energy.NewMeter(energy.Default32nm())
	p := NewRandomPort(mem, fetch, 1, stats, meter)

	v, lat, err := p.Load("A", 2)
	if err != nil || v != 7 || lat != 12 {
		t.Fatalf("Load = %g/%d/%v", v, lat, err)
	}
	if _, err := p.Store("A", 0, 99); err != nil {
		t.Fatal(err)
	}
	if got, _ := mem.Read("A", 0); got != 99 {
		t.Fatal("store not applied")
	}
	if stats.DABytes != 16 {
		t.Fatalf("DABytes = %d, want 16", stats.DABytes)
	}
	if p.Loads != 1 || p.Stores != 1 {
		t.Fatal("counters")
	}
	if _, _, err := p.Load("A", 99); err == nil {
		t.Fatal("OOB load accepted")
	}
	if _, _, err := p.Load("Z", 0); err == nil {
		t.Fatal("unknown object accepted")
	}
	if _, err := p.Store("A", -1, 0); err == nil {
		t.Fatal("OOB store accepted")
	}
}

func TestStatsTotal(t *testing.T) {
	s := Stats{DABytes: 1, AABytes: 2, IntraBytes: 3}
	if s.Total() != 6 {
		t.Fatal("Total")
	}
}
