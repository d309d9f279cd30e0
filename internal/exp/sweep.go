package exp

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	"p2pmpi/internal/mpd"
)

// DefaultWorkers returns the default parallelism of the sweep pool.
func DefaultWorkers() int { return runtime.NumCPU() }

// sweep runs at(c) for every coordinate on at most workers OS
// goroutines and concatenates the returned points in coordinate order.
// Each coordinate owns an independent virtual-time world, so OS-level
// parallelism cannot perturb results: the output is byte-identical
// whatever the worker count. The error of the earliest failing
// coordinate is returned, prefixed with that coordinate.
func sweep[C fmt.Stringer, P any](coords []C, workers int, at func(C) ([]P, error)) ([]P, error) {
	workers = max(1, min(workers, len(coords)))
	per := make([][]P, len(coords))
	errs := make([]error, len(coords))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, c := range coords {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			per[i], errs[i] = at(c)
		}()
	}
	wg.Wait()
	var out []P
	for i, pts := range per {
		if errs[i] != nil {
			return nil, fmt.Errorf("%v: %w", coords[i], errs[i])
		}
		out = append(out, pts...)
	}
	return out, nil
}

// subSeed derives a per-point seed from the sweep seed and a label
// built from the point's coordinates, so replays and worker counts
// cannot move it.
func subSeed(seed int64, format string, args ...any) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, format, args...)
	return seed ^ int64(h.Sum64())
}

// boundMembership puts a large world on a membership diet: every
// compute-peer refresh and re-registration ships a host-list reply,
// O(world) per message and O(world²) per virtual minute summed over
// peers, and none of it feeds a measurement (only the frontal's view
// does). It bounds the supernode's replies well above the booking
// fan-out of a procs-wide job, slows the compute peers' refreshes and
// caps their unread caches to a token couple of entries (an unread
// boot snapshot is the dominant per-host retention at 500k–1M hosts).
// Only zero fields are filled, so every knob stays caller-overridable.
func (o *Options) boundMembership(procs int) {
	if o.MaxPeersReturned == 0 {
		o.MaxPeersReturned = max(512, 4*(int(math.Ceil(1.2*float64(procs)))+2))
	}
	if o.PeerRefreshInterval == 0 {
		o.PeerRefreshInterval = time.Hour
	}
	if o.PeerCacheCap == 0 {
		o.PeerCacheCap = 2
	}
}

// submitPumped runs fn as an actor on the world's scheduler and pumps
// the virtual clock one second at a time until fn finishes or the
// budget of virtual seconds is exhausted.
func submitPumped[T any](w *World, budget int, name string, fn func() (T, error)) (T, error) {
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	w.S.Go(name, func() {
		v, err := fn()
		ch <- outcome{v, err}
	})
	for i := 0; i < budget; i++ {
		w.RunFor(time.Second)
		select {
		case o := <-ch:
			return o.v, o.err
		default:
		}
	}
	var zero T
	return zero, ErrPumpExhausted
}

// Compile-time check that *mpd.MPD keeps satisfying the scheduler's
// submitter contract used by the concurrent experiments.
var _ interface {
	Submit(mpd.JobSpec) (*mpd.JobResult, error)
} = (*mpd.MPD)(nil)
