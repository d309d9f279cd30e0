package vtime

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// gatherRuntimes runs body once under each Runtime: inside an actor of
// a fresh Scheduler (returned so the caller can inspect it after Wait),
// and on the calling goroutine under Real.
var gatherRuntimes = []struct {
	name string
	run  func(body func(rt Runtime)) *Scheduler
}{
	{"scheduler", func(body func(rt Runtime)) *Scheduler {
		s := New()
		s.Go("gatherer", func() { body(s) })
		s.Wait()
		return s
	}},
	{"real", func(body func(rt Runtime)) *Scheduler {
		body(Real{})
		return nil
	}},
}

func TestGatherYieldsInArrivalOrder(t *testing.T) {
	const n = 4
	for _, r := range gatherRuntimes {
		t.Run(r.name, func(t *testing.T) {
			var idx, vals []int
			r.run(func(rt Runtime) {
				// Worker i answers after (n-i) steps: arrival order is
				// the reverse of spawn order.
				for i, v := range Gather(rt, "w", n, time.Second, func(i int) int {
					rt.Sleep(time.Duration(n-i) * 100 * time.Millisecond)
					return 10 * i
				}) {
					idx = append(idx, i)
					vals = append(vals, v)
				}
			})
			if len(idx) != n {
				t.Fatalf("gathered %d answers, want %d", len(idx), n)
			}
			for k := range idx {
				if idx[k] != n-1-k || vals[k] != 10*idx[k] {
					t.Fatalf("yield order %v values %v, want indices 3,2,1,0 with v = 10·i", idx, vals)
				}
			}
		})
	}
}

func TestGatherEarlyBreakStrandsNoWorker(t *testing.T) {
	const n = 5
	for _, r := range gatherRuntimes {
		t.Run(r.name, func(t *testing.T) {
			var finished atomic.Int32
			first := -1
			s := r.run(func(rt Runtime) {
				for i := range Gather(rt, "w", n, time.Second, func(i int) struct{} {
					rt.Sleep(time.Duration(i+1) * 20 * time.Millisecond)
					finished.Add(1)
					return struct{}{}
				}) {
					first = i
					break
				}
				// The late workers still run to completion and hand off
				// into a mailbox nobody reads: the push must not block.
				rt.Sleep(time.Duration(n+2) * 20 * time.Millisecond)
			})
			if first < 0 {
				t.Fatal("no answer before the break")
			}
			if s != nil && s.Actors() != 0 {
				t.Fatalf("%d actors still parked after the gatherer broke out", s.Actors())
			}
			deadline := time.Now().Add(5 * time.Second)
			for finished.Load() != n && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := finished.Load(); got != n {
				t.Fatalf("%d of %d workers finished", got, n)
			}
		})
	}
}

func TestGatherStallEndsSequence(t *testing.T) {
	for _, r := range gatherRuntimes {
		t.Run(r.name, func(t *testing.T) {
			if r.name == "real" {
				if testing.Short() {
					t.Skip("waits out the 15s stall margin on the wall clock")
				}
				t.Parallel()
			}
			release := make(chan struct{})
			var got []int
			var stalledFor time.Duration
			r.run(func(rt Runtime) {
				var last time.Time
				for i := range Gather(rt, "w", 3, 0, func(i int) int {
					if i == 1 {
						// Never answers within the bound. Under the
						// scheduler a long sleep; under Real a channel
						// the test closes once the gather gave up.
						if _, ok := rt.(*Scheduler); ok {
							rt.Sleep(time.Hour)
						} else {
							<-release
						}
					}
					return i
				}) {
					got = append(got, i)
					last = rt.Now()
				}
				stalledFor = rt.Now().Sub(last)
			})
			close(release)
			slices.Sort(got) // Real goroutines may answer in either order
			if len(got) != 2 || got[0] != 0 || got[1] != 2 {
				t.Fatalf("gathered %v, want [0 2] then a stall", got)
			}
			if stalledFor < 15*time.Second || stalledFor > 20*time.Second {
				t.Fatalf("stall detected after %v, want the 2·0+15s bound", stalledFor)
			}
		})
	}
}

func TestGatherZeroSpawnsNothing(t *testing.T) {
	for _, r := range gatherRuntimes {
		t.Run(r.name, func(t *testing.T) {
			calls, yields := 0, 0
			r.run(func(rt Runtime) {
				for range Gather(rt, "w", 0, time.Second, func(int) int { calls++; return 0 }) {
					yields++
				}
			})
			if calls != 0 || yields != 0 {
				t.Fatalf("n = 0 ran %d workers and yielded %d answers", calls, yields)
			}
		})
	}
}

func TestGatherNegativeWaitIsUnbounded(t *testing.T) {
	for _, r := range gatherRuntimes {
		t.Run(r.name, func(t *testing.T) {
			// Under the scheduler the slow worker answers ten virtual
			// hours late, far past any finite bound. Under Real it
			// answers after 100ms: that case only checks that the
			// unbounded wait still completes.
			slow := 10 * time.Hour
			if r.name == "real" {
				slow = 100 * time.Millisecond
			}
			n := 0
			r.run(func(rt Runtime) {
				for range Gather(rt, "w", 3, -1, func(i int) int {
					if i == 0 {
						rt.Sleep(slow)
					}
					return i
				}) {
					n++
				}
			})
			if n != 3 {
				t.Fatalf("gathered %d answers with wait < 0, want all 3", n)
			}
		})
	}
}
