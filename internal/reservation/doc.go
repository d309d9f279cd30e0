// Package reservation implements the Reservation Service (RS) introduced
// for co-allocation (§3.2, §4.2): the per-peer daemon that negotiates
// resource holds between submitters and hosts.
//
// The host-side RS enforces the owner's preferences (§4.1): the number J
// of simultaneous applications, and a deny list of submitter IDs. It
// answers Reserve with OK (carrying the host's P setting) or NOK, holds
// the reservation under its unique hash key until it is started,
// cancelled or expired, and later validates the key presented by the
// launch request (§4.2 step 7).
//
// The submitter side offers two layers. Broker is the paper's one-shot
// RS-RS brokering round: a concurrent Reserve fan-out that partitions
// candidates into offers, refusals and dead peers. Acquire builds atomic
// multi-host acquisition on top of it for the multi-job scheduler:
// offers accumulate across backoff-retry rounds, surplus reservations
// are cancelled, and a round that cannot satisfy the caller releases
// every obtained hold again — all-or-nothing, so a failed acquisition
// never leaks J slots. ReleaseAll is the matching synchronous cancel
// fan-out. Both fan-outs are one vtime.Gather each: one actor per peer,
// every answer awaited at most 2·timeout+15s. A stall ends the wait
// early: Broker counts the unanswered peers dead, and ReleaseAll
// returns while the late cancels are still in flight.
package reservation
