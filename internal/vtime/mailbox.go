package vtime

import (
	"iter"
	"sync"
	"time"
)

// Gather is the one scatter-gather of the middleware: it starts fn(0),
// fn(1), …, fn(n-1) as actors named name, in index order, and yields
// each (i, fn(i)) in arrival order. Every wait for the next answer is
// bounded by 2·wait + 15s — the worker's own bounded exchange plus a
// margin for dialling — and wait < 0 waits without bound. The sequence
// ends after n answers, at the first wait that expires (a stall), or
// when the caller stops ranging; a caller that counts fewer than n
// answers has seen a stall. Workers never block on the hand-off, so
// breaking out early strands no actor.
//
// Under a virtual-time runtime Gather must be ranged over from an
// actor, like any mailbox pop.
func Gather[T any](rt Runtime, name string, n int, wait time.Duration, fn func(i int) T) iter.Seq2[int, T] {
	type answer struct {
		i int
		v T
	}
	return func(yield func(int, T) bool) {
		if n <= 0 {
			return
		}
		mb := rt.NewMailbox()
		for i := 0; i < n; i++ {
			rt.Go(name, func() { mb.Push(answer{i, fn(i)}) })
		}
		bound := time.Duration(-1)
		if wait >= 0 {
			bound = 2*wait + 15*time.Second
		}
		for range n {
			v, err := mb.PopTimeout(bound)
			if err != nil {
				return
			}
			a := v.(answer)
			if !yield(a.i, a.v) {
				return
			}
		}
	}
}

// Mailbox is the runtime-portable unbounded FIFO used by middleware code
// to gather concurrent results (e.g. reservation fan-out answers). The
// scheduler implementation parks actors in virtual time; the Real
// implementation blocks goroutines on a condition variable. Code written
// against Runtime must use mailboxes — not bare channels or WaitGroups —
// wherever it blocks, or it would stall the virtual clock.
type Mailbox interface {
	// Push appends a value. Push on a closed mailbox is a no-op.
	Push(v any)
	// Pop blocks until a value is available; ok is false after Close
	// drains.
	Pop() (v any, ok bool)
	// PopTimeout is Pop with a deadline; d < 0 blocks forever. It
	// returns ErrTimeout or ErrClosed.
	PopTimeout(d time.Duration) (any, error)
	// Close wakes all waiters; buffered values remain poppable.
	Close()
	// Len returns the number of buffered values.
	Len() int
}

// NewMailbox returns a virtual-time mailbox. Part of the Runtime
// interface.
func (s *Scheduler) NewMailbox() Mailbox {
	return &schedMailbox{q: NewQueue[any](s)}
}

type schedMailbox struct{ q *Queue[any] }

func (m *schedMailbox) Push(v any) { m.q.Push(v) }
func (m *schedMailbox) Pop() (any, bool) {
	return m.q.Pop()
}
func (m *schedMailbox) PopTimeout(d time.Duration) (any, error) {
	return m.q.PopTimeout(d)
}
func (m *schedMailbox) Close()   { m.q.Close() }
func (m *schedMailbox) Len() int { return m.q.Len() }

// NewMailbox returns a wall-clock mailbox. Part of the Runtime interface.
func (Real) NewMailbox() Mailbox {
	m := &realMailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

type realMailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []any
	closed bool
}

func (m *realMailbox) Push(v any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.items = append(m.items, v)
	m.cond.Broadcast()
}

func (m *realMailbox) Pop() (any, bool) {
	v, err := m.PopTimeout(-1)
	return v, err == nil
}

func (m *realMailbox) PopTimeout(d time.Duration) (any, error) {
	var deadline time.Time
	if d >= 0 {
		deadline = time.Now().Add(d)
		// A timer wakes the cond so timed waiters can give up.
		t := time.AfterFunc(d, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		defer t.Stop()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if len(m.items) > 0 {
			v := m.items[0]
			m.items = m.items[1:]
			return v, nil
		}
		if m.closed {
			return nil, ErrClosed
		}
		if d >= 0 && !time.Now().Before(deadline) {
			return nil, ErrTimeout
		}
		m.cond.Wait()
	}
}

func (m *realMailbox) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

func (m *realMailbox) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}
