// Package fifo provides the simulator's in-order queues: a ring buffer
// with a head index, the software analog of an SRAM window with read and
// write pointers.
package fifo

// Queue is a first-in first-out queue over a power-of-two ring. The zero
// value is an empty queue. Push grows the ring (by doubling) only when it
// is full and Pop never shrinks it, so a queue whose occupancy is bounded —
// a link's in-flight elements by its credits, a pipeline's iterations by
// its depth — stops allocating once it has reached that bound.
type Queue[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Front returns the oldest element, which stays queued; the pointer lets
// the caller update it in place. The queue must not be empty.
func (q *Queue[T]) Front() *T {
	if q.n == 0 {
		panic("fifo: Front of empty queue")
	}
	return &q.buf[q.head]
}

// Back returns the newest element. The queue must not be empty.
func (q *Queue[T]) Back() *T {
	if q.n == 0 {
		panic("fifo: Back of empty queue")
	}
	return &q.buf[(q.head+q.n-1)&(len(q.buf)-1)]
}

// Pop removes the oldest element. The queue must not be empty.
func (q *Queue[T]) Pop() {
	if q.n == 0 {
		panic("fifo: Pop of empty queue")
	}
	var zero T
	q.buf[q.head] = zero // drop references the element held
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

// grow doubles the ring, unrolling the queued elements to its start.
func (q *Queue[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}
