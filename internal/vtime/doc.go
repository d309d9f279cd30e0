// Package vtime provides a deterministic discrete-event virtual-time
// scheduler. It is the substrate on which the whole Grid'5000 simulation
// runs: every daemon, every MPI process and every in-flight message is an
// actor or an event on a single virtual clock.
//
// The scheduler is conservative and strictly sequential: exactly one actor
// executes at any moment, and the clock advances only when every actor is
// parked. Together with seeded random sources this makes large simulations
// (hundreds of peers, hundreds of thousands of messages) reproducible
// bit-for-bit, which the experiment harness relies on — including its
// parallel sweep mode, where independent worlds run on separate OS
// threads without perturbing each other's timelines.
//
// The hot path is run-to-completion: pure timer events (Sleep expiries,
// queue timeouts) fire inline on the dispatch loop under one lock
// acquisition, events live in a pooled slab behind a 4-ary heap, and
// when the next runnable actor is the goroutine already driving the
// dispatch, the hand-off resolves without a channel round-trip. A Sleep
// tick costs one mutex cycle and zero allocations; Now/Elapsed are
// lock-free. See docs/PERF.md for the execution model and the
// determinism rules fast-path code must follow.
//
// Actors are ordinary goroutines registered with (*Scheduler).Go. They may
// block only through scheduler primitives (Sleep, Queue.Pop, Timer waits).
// Blocking through ordinary channel operations or OS calls would stall the
// virtual clock. Callbacks scheduled with After/Schedule/ScheduleArg run
// outside any actor context — never concurrently with an actor — and
// must not block.
//
// The Runtime interface is the portable subset middleware is written
// against: Scheduler implements it in virtual time, Real implements it
// on the wall clock, and the identical daemon code runs in both worlds.
// Mailbox is the portable blocking FIFO used wherever actors hand off
// values. Gather, built on it, is the one scatter-gather of the
// middleware: every per-peer fan-out (reservation brokering and
// release, latency and detector pings, the Prepare and Start launch
// phases, a host's local processes, RunLocal's ranks) spawns its
// workers and collects their answers through it, under one shared
// stall bound of 2·wait + 15s.
package vtime
