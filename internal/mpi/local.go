package mpi

import (
	"fmt"

	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// RunLocal executes fn as n unreplicated MPI processes against the given
// network, all listening on host at consecutive ports from basePort. It
// is the quickest way to run an MPI program without the middleware: over
// vtime.Real and transport.TCP it runs n goroutines on localhost; over a
// scheduler and simnet it runs in virtual time.
//
// Under a virtual-time runtime RunLocal must be called from an actor (it
// blocks on a runtime mailbox). It returns one error slot per rank.
func RunLocal(rt vtime.Runtime, net transport.Network, host string, basePort, n int,
	algs Algorithms, fn func(c *Comm) error) []error {

	slots := make([]Slot, n)
	for i := 0; i < n; i++ {
		slots[i] = Slot{
			Rank: i, Replica: 0, Global: i,
			HostID: host,
			Addr:   fmt.Sprintf("%s:%d", host, basePort+i),
		}
	}
	errs := make([]error, n)
	for rank, err := range vtime.Gather(rt, "mpi.local", n, -1, func(i int) (err error) {
		c, err := Join(Config{
			Self: slots[i], Slots: slots, N: n, R: 1,
			Net: net, RT: rt, Algorithms: algs,
		})
		if err != nil {
			return err
		}
		defer c.Close()
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return fn(c)
	}) {
		errs[rank] = err
	}
	return errs
}
