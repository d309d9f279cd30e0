package mpd

import (
	"maps"
	"slices"

	"p2pmpi/internal/proto"
	"p2pmpi/internal/replica"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// failurePings is how many detect periods a host may stay silent
// before its replicas are suspected.
const failurePings = 2

// collector is the collect phase's bookkeeping: one JobDone per used
// host, bounded by the job timeout. With spec.FailureDetect > 0 it
// interleaves a §3.2-style failure detector: every detect period the
// still-silent hosts are probed with application-level pings, answers
// feed one replica monitor per rank (replica.NewMonitor), and Suspect
// declares replicas on stale hosts dead. A host whose replicas are all
// dead is written off — its pending slots fail, the peer is marked dead
// in the cache — and the wait ends early once either every host is
// accounted for or some rank has no surviving replica left.
type collector struct {
	m     *MPD
	n     int
	jobID string
	done  vtime.Mailbox

	slotsByHost map[string][]proto.Slot   // the table, by host
	outstanding map[string]proto.PeerInfo // hosts yet to report
	writtenOff  map[string]proto.PeerInfo // hosts the detector declared lost
	pending     []int                     // undecided slots per rank
	okCount     []int                     // delivered slots per rank
	groups      []*replica.Group          // one monitor per rank; nil without the detector

	resultBySlot map[[2]int]proto.SlotResult
	lostSlots    map[[2]int]string // unreported slots on hosts declared dead
	failover     FailoverStats
}

// collect waits for the job's completion reports — under the watch of
// the mid-run failure detector when spec.FailureDetect is set.
func (s *submission) collect() *collector {
	m, detect := s.m, s.spec.FailureDetect
	c := &collector{
		m: m, n: s.spec.N, jobID: s.jobID, done: s.done,
		slotsByHost:  make(map[string][]proto.Slot, len(s.used)),
		outstanding:  make(map[string]proto.PeerInfo, len(s.used)),
		writtenOff:   make(map[string]proto.PeerInfo),
		pending:      make([]int, s.spec.N),
		okCount:      make([]int, s.spec.N),
		resultBySlot: make(map[[2]int]proto.SlotResult),
		lostSlots:    make(map[[2]int]string),
	}
	for _, h := range s.used {
		c.outstanding[h.ID] = h
	}
	for _, slot := range s.table {
		c.slotsByHost[slot.HostID] = append(c.slotsByHost[slot.HostID], slot)
		c.pending[slot.Rank]++
	}
	deadline := m.rt.Now().Add(s.spec.Timeout)
	if detect > 0 {
		// A replica is suspected after missing failurePings whole probe
		// periods (plus the in-flight probe's own timeout).
		failTO := failurePings*detect + m.cfg.ReserveTimeout
		c.groups = make([]*replica.Group, s.spec.N)
		for k := range c.groups {
			c.groups[k] = replica.NewMonitor(s.spec.R, failTO, m.rt.Now())
		}
	}

	// The probe cadence is a fixed schedule, not a silence timer: a
	// steady trickle of completion reports arriving under one detect
	// period apart must not postpone detection of an early host death.
	nextProbe := m.rt.Now().Add(detect)
	for len(c.outstanding) > 0 {
		wait := deadline.Sub(m.rt.Now())
		if wait <= 0 {
			break // deadline reached: a zero-wait pop would spin forever
		}
		if detect > 0 {
			until := nextProbe.Sub(m.rt.Now())
			if until <= 0 {
				if c.probeRound() {
					break
				}
				nextProbe = m.rt.Now().Add(detect)
				continue
			}
			// The pop below times out at the probe fence at the latest;
			// the next iteration then runs the round.
			wait = min(wait, until)
		}
		v, err := c.done.PopTimeout(wait)
		if err == nil {
			c.ingest(v.(*proto.JobDone))
		} else if err != vtime.ErrTimeout {
			break // mailbox closed: the daemon is shutting down
		}
	}
	// Ranks merely pending (deadline expiry, early abort for another
	// rank's loss) are not counted lost: their fate is unknown, and the
	// no-report accounting covers them.
	c.failover.RanksLost = c.lostRanks()
	return c
}

// ingest folds one completion report into the bookkeeping. A report
// counts only for the slots the table assigns to its sender, so a buggy
// or forged report — from a host of the job or from outside it —
// cannot settle another host's silent slot. A report from a host the
// detector already wrote off retracts the loss: delivered work counts,
// and the report itself proves the peer alive, so the write-off's cache
// eviction is reverted too. Only an actual write-off is retracted — a
// merely duplicated JobDone (network-level duplication, or a retransmit
// whose first copy arrived) leaves HostsLost alone.
func (c *collector) ingest(d *proto.JobDone) {
	own := c.slotsByHost[d.HostID] // none for a host outside the job
	if info, lost := c.writtenOff[d.HostID]; lost {
		delete(c.writtenOff, d.HostID)
		c.failover.HostsLost--
		c.m.cache.Update([]proto.PeerInfo{info})
	}
	delete(c.outstanding, d.HostID)
	for _, sr := range d.Results {
		if !slices.ContainsFunc(own, func(s proto.Slot) bool {
			return s.Rank == sr.Rank && s.Replica == sr.Replica
		}) {
			continue // not a slot of this host
		}
		slot := [2]int{sr.Rank, sr.Replica}
		if _, seen := c.resultBySlot[slot]; seen {
			continue // duplicate report
		}
		if _, wroteOff := c.lostSlots[slot]; wroteOff {
			delete(c.lostSlots, slot) // pending already settled
		} else {
			c.pending[sr.Rank]--
		}
		c.resultBySlot[slot] = sr
		if sr.OK {
			c.okCount[sr.Rank]++
		} else if c.groups != nil {
			c.groups[sr.Rank].MarkDead(sr.Replica)
		}
	}
}

// probeRound runs one detector pass over the still-silent hosts and
// reports whether some rank is now confirmed unable to deliver. Hosts
// are visited in sorted order: every probe consumes seeded nonce and
// jitter draws, and map order would leak runtime randomization into
// the virtual timeline.
func (c *collector) probeRound() (rankLost bool) {
	ids := slices.Sorted(maps.Keys(c.outstanding))
	// Capture each replica's incarnation epoch before soliciting
	// heartbeats: an answer produced by a pre-failover incarnation
	// (late, duplicated, or raced by a death declaration while the
	// probes were in flight) then fails the epoch check in HeartbeatAt
	// instead of resurrecting a written-off replica.
	epochs := make(map[[2]int]uint64, len(ids))
	for _, id := range ids {
		for _, s := range c.slotsByHost[id] {
			epochs[[2]int{s.Rank, s.Replica}] = c.groups[s.Rank].Epoch(s.Replica)
		}
	}
	answers := c.probe(ids)
	c.failover.Probes += len(ids)
	// Completion reports that arrived while the probes were in flight
	// take precedence over the probes' verdicts: a host that finished
	// mid-round answers Known=false (the job is gone from its table —
	// because it completed), and judging that silence without draining
	// the queue would write off delivered work.
	for c.done.Len() > 0 {
		if v, ok := c.done.Pop(); ok {
			c.ingest(v.(*proto.JobDone))
		}
	}
	now := c.m.rt.Now()
	for i, id := range ids {
		if _, waiting := c.outstanding[id]; !waiting {
			continue // reported during the probe round
		}
		switch answers[i] {
		case probeAlive:
			for _, s := range c.slotsByHost[id] {
				c.groups[s.Rank].HeartbeatAt(s.Replica, epochs[[2]int{s.Rank, s.Replica}], now)
			}
		case probeGone:
			// The host answers but no longer knows the job: it crashed
			// and rebooted mid-run. Its processes are definitively gone
			// — no staleness threshold needed.
			for _, s := range c.slotsByHost[id] {
				c.groups[s.Rank].MarkDead(s.Replica)
			}
		case probeSilent:
			// No heartbeat; the staleness window decides below.
		}
	}
	for _, g := range c.groups {
		g.Suspect(now)
	}
	for _, id := range ids {
		if _, waiting := c.outstanding[id]; waiting && !slices.ContainsFunc(c.slotsByHost[id],
			func(s proto.Slot) bool { return c.groups[s.Rank].Alive(s.Replica) }) {
			c.writeOff(id)
		}
	}
	// Early exit: a rank with no delivered and no pending replica can
	// never succeed, so waiting out the rest of the timeout only
	// inflates the measured completion time of a lost job.
	return c.lostRanks() > 0
}

// writeOff declares a silent host lost: its unreported slots fail with
// the detector's reason and the peer is marked dead in the cache.
func (c *collector) writeOff(id string) {
	c.writtenOff[id] = c.outstanding[id]
	delete(c.outstanding, id)
	c.failover.HostsLost++
	c.m.cache.MarkDead(id)
	for _, s := range c.slotsByHost[id] {
		slot := [2]int{s.Rank, s.Replica}
		if _, done := c.resultBySlot[slot]; !done {
			c.lostSlots[slot] = "host " + id + " failed mid-run (detector)"
			c.pending[s.Rank]--
		}
	}
}

// lostRanks counts the ranks confirmed lost: no replica delivered and
// none is still pending — every copy reported failure or was written
// off with its host.
func (c *collector) lostRanks() int {
	lost := 0
	for rank := 0; rank < c.n; rank++ {
		if c.okCount[rank] == 0 && c.pending[rank] <= 0 {
			lost++
		}
	}
	return lost
}

// probeResult classifies one detector probe.
type probeResult int

const (
	// probeSilent: no answer before the timeout (host down or
	// partitioned) — staleness accumulates.
	probeSilent probeResult = iota
	// probeAlive: the host still hosts the job — a fresh heartbeat.
	probeAlive
	// probeGone: the host answers but no longer knows the job — it
	// crashed and rebooted mid-run, so its processes are dead for sure.
	probeGone
)

// probe sends one JobPing to every given host concurrently — the
// detector's application-level heartbeat (§4.1-style, never ICMP) at
// job granularity, so a host reboot cannot masquerade as process
// liveness. Hosts without an answer (a stall) stay probeSilent.
func (c *collector) probe(ids []string) []probeResult {
	m := c.m
	addrs := make([]string, len(ids)) // resolved up front: workers must not read the maps
	for i, id := range ids {
		addrs[i] = c.outstanding[id].MPDAddr
	}
	answers := make([]probeResult, len(ids))
	for i, res := range vtime.Gather(m.rt, "mpd.detect."+m.cfg.Self.ID, len(ids),
		m.cfg.ReserveTimeout, func(i int) probeResult {
			nonce := m.nextNonce()
			reply, err := transport.RequestReply(m.net, addrs[i],
				transport.Message{Payload: proto.MustMarshal(&proto.JobPing{Nonce: nonce, JobID: c.jobID})},
				m.cfg.ReserveTimeout)
			if err != nil {
				return probeSilent
			}
			var pong proto.JobPong
			perr := proto.DecodeInto(reply.Payload, &pong)
			reply.Release()
			switch {
			case perr != nil || pong.Nonce != nonce:
				return probeSilent
			case pong.Known:
				return probeAlive
			}
			return probeGone
		}) {
		answers[i] = res
	}
	return answers
}
