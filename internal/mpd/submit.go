package mpd

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/mpi"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/reservation"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// JobSpec is one p2pmpirun invocation:
// p2pmpirun -n N -r R -a Strategy Program Args...
type JobSpec struct {
	Program  string
	Args     []string
	N        int
	R        int
	Strategy core.Strategy
	// Timeout bounds the whole run (default 5 minutes).
	Timeout time.Duration
	// Algorithms selects the collective implementations used by the
	// job's communicators (zero value = library defaults). Used by the
	// collective-algorithm ablations.
	Algorithms mpi.Algorithms
	// Exclude lists host IDs skipped during booking. The multi-job
	// scheduler feeds its live view of saturated hosts through here, so
	// concurrent submissions do not burn brokering round-trips on hosts
	// guaranteed to answer NOK.
	Exclude []string
	// ReserveRetries enables backoff-retry brokering rounds: when the
	// gathered offers cannot host the request, previously refused peers
	// are re-asked up to this many times, after a backoff of 2s doubled
	// each round, before the submission fails. Zero keeps the paper's
	// one-shot §4.2 behaviour.
	ReserveRetries int
	// OnAllocated, when set, is invoked with the computed assignment
	// right after allocation succeeds and before the launch phases. The
	// multi-job scheduler uses it to charge the placement to its slot
	// ledger for the lifetime of the job.
	OnAllocated func(*core.Assignment)
	// FailureDetect enables the mid-run failure detector: while waiting
	// for completion reports the submitter probes every silent host at
	// this period and feeds the answers into one replica monitor per
	// rank (internal/replica). A host whose replicas all go stale (two
	// silent periods) is declared lost: its unreported slots fail
	// immediately, the peer is marked dead in the cache, and the
	// submission either fails over to the surviving replicas or — when
	// a rank has none left — returns ErrRanksLost right away instead of
	// burning the rest of the timeout. Zero keeps the paper's passive
	// wait-until-timeout behaviour.
	FailureDetect time.Duration
	// Preemptable marks the job killable mid-run: hosting MPDs arm a
	// kill channel per local process, and the submitter exposes a
	// Preemption handle through OnPreempt. A killed job fails with
	// ErrPreempted; its reservations return through the normal release
	// paths (never conflict accounting).
	Preemptable bool
	// OnPreempt, when set on a Preemptable spec, receives the job's
	// preemption handle right after allocation succeeds — the earliest
	// instant a kill is meaningful. The multi-job scheduler registers
	// the handle so a starved higher-priority job can evict this one.
	OnPreempt func(*Preemption)
}

// FailoverStats summarises the mid-run failure handling of one
// submission (all zero when FailureDetect was off or nothing failed).
type FailoverStats struct {
	// HostsLost counts hosts the detector declared failed mid-run.
	HostsLost int
	// Failovers counts ranks whose leader (replica 0) was lost while a
	// backup replica delivered — the replication mechanism of §3.2
	// actually paying off.
	Failovers int
	// RanksLost counts ranks with no surviving replica: the job failed.
	RanksLost int
	// Probes counts detector ping probes issued.
	Probes int
}

// JobResult is the submitter's view of a completed job.
type JobResult struct {
	JobID      string
	Key        string
	Assignment *core.Assignment
	// Results holds one entry per process slot, sorted by (rank,
	// replica). Hosts that never reported produce OK=false entries.
	Results []proto.SlotResult
	// Duration is the wall/virtual time from Submit to the last report.
	Duration time.Duration
	// Reserve aggregates the brokering outcomes (offers, refusals, dead
	// peers, rounds) — the raw material of conflict-rate accounting.
	Reserve reservation.Conflicts
	// Failover reports the mid-run failure handling (see FailoverStats).
	Failover FailoverStats
}

// OutputOf returns the captured output of (rank, replica).
func (r *JobResult) OutputOf(rank, replica int) ([]byte, bool) {
	for _, sr := range r.Results {
		if sr.Rank == rank && sr.Replica == replica {
			return sr.Output, sr.OK
		}
	}
	return nil, false
}

// Failures counts slots that did not complete successfully.
func (r *JobResult) Failures() int {
	n := 0
	for _, sr := range r.Results {
		if !sr.OK {
			n++
		}
	}
	return n
}

// LostRanks counts ranks with no successful replica among the results —
// the replication-level failure criterion: a job delivered its work iff
// LostRanks is zero, however many individual replicas died.
func (r *JobResult) LostRanks() int {
	if r.Assignment == nil {
		return 0
	}
	ok := make([]bool, r.Assignment.N)
	for _, sr := range r.Results {
		if sr.OK && sr.Rank >= 0 && sr.Rank < len(ok) {
			ok[sr.Rank] = true
		}
	}
	lost := 0
	for _, v := range ok {
		if !v {
			lost++
		}
	}
	return lost
}

// Submission errors.
var (
	// ErrNotEnoughPeers: even after a cache refresh and brokering, the
	// selected hosts cannot satisfy the request.
	ErrNotEnoughPeers = errors.New("mpd: not enough peers to satisfy the request")
	// ErrLaunchFailed: a prepared host refused or timed out during launch.
	ErrLaunchFailed = errors.New("mpd: launch failed")
	// ErrRanksLost: the mid-run failure detector found a rank whose
	// replicas all died — no surviving copy can deliver the rank's
	// work, so the job is lost (re-book to retry).
	ErrRanksLost = errors.New("mpd: a rank lost every replica")
	// ErrPreempted: the job was checkpoint-killed by scheduler
	// preemption (Preemption.Kill). Terminal, never contention: the
	// scheduler chose to evict this job, so retrying it automatically
	// would undo the eviction.
	ErrPreempted = errors.New("mpd: job preempted")
)

// Preemption is the submitter-side kill switch of one preemptable
// in-flight job. Kill is phase-aware and exactly-once: during the
// launch phases it only marks the job killed — Submit checks the mark
// at each phase boundary and unwinds through the ordinary cancel path,
// so no kill frame races an un-acked Prepare or Start — and once the
// job is running (markRunning) the deferred or direct kill fans
// KillJob out to every used host exactly once. Hosts that died
// meanwhile simply time out; their reservations were already failed by
// the crash path, which is what keeps release exactly-once under
// preemption × churn.
type Preemption struct {
	m     *MPD
	key   string
	hosts []proto.PeerInfo

	mu      sync.Mutex
	killed  bool
	running bool
	sent    bool
}

// Kill requests the job's eviction. Safe from any goroutine; duplicate
// calls are no-ops.
func (p *Preemption) Kill() {
	p.mu.Lock()
	p.killed = true
	send := p.running && !p.sent
	if send {
		p.sent = true
	}
	p.mu.Unlock()
	if send {
		p.sendKills()
	}
}

// Killed reports whether Kill was called.
func (p *Preemption) Killed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.killed
}

// markRunning flips the handle into the running phase; a kill that
// arrived during the launch phases is dispatched now, exactly once.
func (p *Preemption) markRunning() {
	p.mu.Lock()
	p.running = true
	send := p.killed && !p.sent
	if send {
		p.sent = true
	}
	p.mu.Unlock()
	if send {
		p.sendKills()
	}
}

// sendKills fans KillJob out to every used host, fire-and-forget: a
// dead host times out (its crash already failed the reservation) and
// handleKill is idempotent, so duplicates and losses are both safe.
func (p *Preemption) sendKills() {
	kill := &proto.KillJob{Key: p.key}
	for _, h := range p.hosts {
		p.m.notify(h.MPDAddr, kill)
	}
}

// submission is one Submit call's state, filled in phase by phase.
type submission struct {
	m       *MPD
	spec    JobSpec
	need    int // n×r process slots
	started time.Time

	lats      map[string]time.Duration // candidate latencies (booking)
	key       string                   // reservation hash key
	jobID     string
	conflicts reservation.Conflicts
	slist     []reservation.Offer // kept offers, ascending latency
	asg       *core.Assignment
	table     []proto.Slot
	used      []proto.PeerInfo // hosts with u_i > 0, in slist order
	pre       *Preemption      // nil unless spec.Preemptable
	done      vtime.Mailbox    // this job's JobDone reports
}

// Submit runs the complete §4.2 procedure as a fixed sequence of
// phases: candidates (booking), reserve (RS-RS brokering), allocate,
// launch (Prepare, then Start), collect and result. It must be called
// from an actor/goroutine of the daemon's runtime and blocks until the
// job completes or times out.
func (m *MPD) Submit(spec JobSpec) (*JobResult, error) {
	if spec.N < 1 || spec.R < 1 {
		return nil, core.ErrBadRequest
	}
	if spec.Timeout <= 0 {
		spec.Timeout = 5 * time.Minute
	}
	if _, ok := m.cfg.Programs[spec.Program]; !ok {
		return nil, fmt.Errorf("mpd: program %q not in registry", spec.Program)
	}
	s := &submission{m: m, spec: spec, need: spec.N * spec.R, started: m.rt.Now()}
	if err := s.reserve(s.candidates()); err != nil {
		return nil, err
	}
	if err := s.allocate(); err != nil {
		return nil, err
	}

	// Register the completion mailbox before anything can finish.
	s.done = m.rt.NewMailbox()
	m.mu.Lock()
	if m.pendingDone == nil {
		m.pendingDone = make(map[string]vtime.Mailbox)
	}
	m.pendingDone[s.jobID] = s.done
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.pendingDone, s.jobID)
		m.mu.Unlock()
	}()

	if err := s.launch(); err != nil {
		return nil, err
	}
	return s.result(s.collect())
}

// candidates is booking (step 2): make sure the cache knows enough
// nodes, then rank them by ascending latency and cut the list at the
// overbooked target need×Overbook+2, skipping hosts the caller
// excluded (the scheduler's live view of saturated hosts).
//
// A supernode with bounded replies (MaxPeersReturned) ships one
// rotating window per fetch, so the cache is refreshed while it grows
// toward the overbooked target (not the bare demand — stopping at need
// would strip the overbook margin that absorbs refusals and dead
// peers). A single refresh would cap the candidate list at one window
// regardless of how many hosts the overlay actually has. The loop ends
// when the target is reached or two consecutive windows teach nothing
// (the overlay has no more hosts to offer); the iteration cap scales
// with the target and only backstops a pathological supernode.
func (s *submission) candidates() []proto.PeerInfo {
	m := s.m
	target := int(math.Ceil(float64(s.need)*m.cfg.Overbook)) + 2
	for stalls, i := 0, 0; i < 2*target+8 && stalls < 2 && m.cache.Size() < target; i++ {
		prev := m.cache.Size()
		if err := m.fetchAndUpdate(); err != nil {
			break
		}
		if m.cache.Size() > prev {
			stalls = 0
		} else {
			stalls++
		}
	}

	excluded := make(map[string]bool, len(s.spec.Exclude))
	for _, id := range s.spec.Exclude {
		excluded[id] = true
	}
	ranked := m.cache.RankedView() // read-only iteration: no copy
	cands := make([]proto.PeerInfo, 0, len(ranked)+1)
	s.lats = make(map[string]time.Duration, len(ranked)+1)
	if m.cfg.P > 0 && !excluded[m.cfg.Self.ID] {
		// The submitter's own machine is a peer too, at zero latency.
		cands = append(cands, m.cfg.Self)
		s.lats[m.cfg.Self.ID] = 0
	}
	for _, rp := range ranked {
		if excluded[rp.Info.ID] {
			continue
		}
		cands = append(cands, rp.Info)
		s.lats[rp.Info.ID] = rp.Latency
	}
	return cands[:min(target, len(cands))]
}

// reserve is RS-RS brokering (steps 3-5) under a fresh hash key: an
// atomic multi-host acquisition that keeps the n×r closest offers,
// cancels the surplus, and — when the spec allows retries — re-asks
// refused peers after a backoff instead of failing outright. Peers
// that stayed silent are marked dead in the cache either way.
func (s *submission) reserve(cands []proto.PeerInfo) error {
	m, spec := s.m, s.spec
	s.key = m.newKey()
	s.jobID = m.newKey()[:16]
	m.mu.Lock()
	m.stats.JobsSubmitted++
	m.mu.Unlock()
	var enough func([]reservation.Offer) bool
	if spec.ReserveRetries > 0 {
		// Retry until the offers pass the step 6 feasibility bar: at
		// least r hosts and Σ min(P_i, n) ≥ n×r processes.
		enough = func(offers []reservation.Offer) bool {
			if len(offers) < spec.R {
				return false
			}
			total := 0
			for _, o := range offers {
				total += core.Capacity(o.P, spec.N)
			}
			return total >= s.need
		}
	}
	res, conflicts, err := reservation.Acquire(m.rt, m.net, cands, reservation.AcquireSpec{
		Req:     proto.Reserve{Key: s.key, JobID: s.jobID, Submitter: m.cfg.Self, N: spec.N},
		Timeout: m.cfg.ReserveTimeout,
		Need:    s.need,
		Enough:  enough,
		Retries: spec.ReserveRetries,
	})
	s.conflicts = conflicts
	for _, d := range res.Dead {
		if d.ID != m.cfg.Self.ID {
			m.cache.MarkDead(d.ID)
		}
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNotEnoughPeers, err)
	}
	s.slist = res.Offers // Acquire already cancelled everything beyond n×r
	return nil
}

// allocate is step 6: place the n×r processes over slist with the
// spec's strategy and build the slot table, in which process g listens
// on ProcBasePort+g at its host. Hosts with u_i = 0 get their
// reservations cancelled (§4.3). The preemption handle exists from
// here on: a kill during the launch phases only sets the mark, which
// launch checks; one during the run fans out KillJob.
func (s *submission) allocate() error {
	m, spec := s.m, s.spec
	cancel := &proto.Cancel{Key: s.key}
	hostSlots := make([]core.HostSlot, 0, len(s.slist))
	for _, o := range s.slist {
		hostSlots = append(hostSlots, core.HostSlot{
			ID:      o.Peer.ID,
			Site:    o.Peer.Site,
			P:       o.P,
			Latency: s.lats[o.Peer.ID],
		})
	}
	asg, err := core.Allocate(hostSlots, spec.N, spec.R, spec.Strategy)
	if err != nil {
		for _, o := range s.slist {
			m.notify(o.Peer.RSAddr, cancel)
		}
		return fmt.Errorf("%w: %v", ErrNotEnoughPeers, err)
	}
	s.asg = asg
	if spec.OnAllocated != nil {
		spec.OnAllocated(asg)
	}

	// core.Allocate guarantees asg.Hosts echoes slist index for index.
	global := 0
	for i, placements := range asg.Procs {
		info := s.slist[i].Peer
		if asg.U[i] == 0 {
			m.notify(info.RSAddr, cancel)
			continue
		}
		s.used = append(s.used, info)
		host := hostOf(info.MPDAddr)
		for _, pl := range placements {
			s.table = append(s.table, proto.Slot{
				Rank: pl.Rank, Replica: pl.Replica, Global: global,
				HostID: info.ID,
				Addr:   fmt.Sprintf("%s:%d", host, m.cfg.ProcBasePort+global),
			})
			global++
		}
	}
	if spec.Preemptable {
		s.pre = &Preemption{m: m, key: s.key, hosts: s.used}
		if spec.OnPreempt != nil {
			spec.OnPreempt(s.pre)
		}
	}
	return nil
}

// launch is the two-phase launch (steps 6-8): Prepare on every used
// host, the kill check, then Start everywhere. A failure unwinds once,
// with a Cancel to both the RS and the MPD of each host — which drops
// the RS hold if the job never got past brokering there, and the
// prepared-but-unstarted application if Prepare already consumed the
// hold. A failed Prepare, or a kill during it, unwinds every kept
// offer (nothing started anywhere, so no kill frames are needed); a
// failed Start unwinds the used hosts, where hosts that did receive
// Start run to completion and release themselves.
func (s *submission) launch() error {
	m := s.m
	var unwind []proto.PeerInfo
	err := s.prepare()
	if err == nil && s.pre != nil && s.pre.Killed() {
		err = ErrPreempted
	}
	if err != nil {
		for _, o := range s.slist {
			unwind = append(unwind, o.Peer)
		}
	} else if err = s.start(); err != nil {
		unwind = s.used
	}
	if err != nil {
		cancel := &proto.Cancel{Key: s.key}
		for _, h := range unwind {
			m.notify(h.RSAddr, cancel)
			m.notify(h.MPDAddr, cancel)
		}
		return err
	}
	if s.pre != nil {
		// Running from here on: a kill marked during the launch phases
		// is dispatched now, later ones go out directly.
		s.pre.markRunning()
	}
	return nil
}

// prepare sends Prepare to every used host and fails unless all answer
// Ready. Error classification (the transport.Retryable audit): a
// retryable failure — the exchange timed out or the listener was
// briefly unreachable — is re-attempted under the daemon's retry
// policy, because under a partition or gray link the host is alive and
// handlePrepare is idempotent (a duplicate Prepare whose first Ready
// was lost answers OK again). Only after the budget is exhausted, or
// on a terminal "peer gone" error (transport.ErrClosed), is the host
// marked dead in the cache so the re-booking retry a scheduler issues
// does not select it again — at launch time a host that stays silent
// through every retry is indistinguishable from a dead one, and the
// cache entry is re-learned on the next refresh either way.
func (s *submission) prepare() error {
	m, spec := s.m, s.spec
	prep := &proto.Prepare{
		Key: s.key, JobID: s.jobID, Program: spec.Program, Args: spec.Args,
		N: spec.N, R: spec.R, Table: s.table,
		SubmitterMPD: m.cfg.Self.MPDAddr,
		Deadline:     spec.Timeout,
		Algorithms:   packAlgorithms(spec.Algorithms),
		Preemptable:  spec.Preemptable,
	}
	type ready struct {
		ok, dead bool
		why      string
	}
	answers := vtime.Gather(m.rt, "mpd.prepare."+m.cfg.Self.ID, len(s.used),
		m.rpcDeadline(m.cfg.PrepareTimeout), func(i int) (a ready) {
			addr := s.used[i].MPDAddr
			var reply transport.Message
			err := m.withRetry(addr, func() error {
				var e error
				reply, e = transport.RequestReply(m.net, addr,
					transport.Message{Payload: proto.MustMarshal(prep)}, m.cfg.PrepareTimeout)
				return e
			})
			if err != nil {
				return ready{dead: true, why: err.Error()}
			}
			var rdy proto.Ready
			perr := proto.DecodeInto(reply.Payload, &rdy)
			reply.Release()
			if perr == nil {
				a.ok, a.why = rdy.OK, rdy.Reason
			}
			return a
		})
	var firstErr error
	got := 0
	for i, a := range answers {
		got++
		host := s.used[i].ID
		if a.dead && host != m.cfg.Self.ID {
			m.cache.MarkDead(host)
		}
		if !a.ok && firstErr == nil {
			firstErr = fmt.Errorf("%w: host %s: %s", ErrLaunchFailed, host, a.why)
		}
	}
	if got < len(s.used) {
		return fmt.Errorf("%w: prepare fan-out stalled", ErrLaunchFailed)
	}
	return firstErr
}

// start sends Start to every used host and stops at the first failed
// ack. Retryable failures re-send under the daemon's retry policy —
// handleStart is idempotent (a duplicate Start on a started job just
// acks), so a lost StartAck cannot double-launch.
func (s *submission) start() error {
	m := s.m
	acks := vtime.Gather(m.rt, "mpd.start."+m.cfg.Self.ID, len(s.used),
		m.rpcDeadline(m.cfg.StartTimeout), func(i int) bool {
			addr := s.used[i].MPDAddr
			return m.withRetry(addr, func() error {
				_, e := transport.RequestReply(m.net, addr,
					transport.Message{Payload: proto.MustMarshal(&proto.Start{Key: s.key})},
					m.cfg.StartTimeout)
				return e
			}) == nil
		})
	acked := 0
	for _, ok := range acks {
		if !ok {
			break
		}
		acked++
	}
	if acked < len(s.used) {
		return fmt.Errorf("%w: start fan-out failed", ErrLaunchFailed)
	}
	return nil
}

// result assembles the JobResult: one entry per table slot, sorted by
// (rank, replica), with the failover accounting and the verdict.
func (s *submission) result(c *collector) (*JobResult, error) {
	spec := s.spec
	out := &JobResult{
		JobID:      s.jobID,
		Key:        s.key,
		Assignment: s.asg,
		Duration:   s.m.rt.Now().Sub(s.started),
		Reserve:    s.conflicts,
		Failover:   c.failover,
	}
	okReplicas := make(map[int][]int, spec.N) // rank -> replicas that delivered
	for _, slot := range s.table {
		key := [2]int{slot.Rank, slot.Replica}
		if sr, ok := c.resultBySlot[key]; ok {
			out.Results = append(out.Results, sr)
			if sr.OK {
				okReplicas[sr.Rank] = append(okReplicas[sr.Rank], sr.Replica)
			}
			continue
		}
		reason := "no completion report from host " + slot.HostID
		if why, lost := c.lostSlots[key]; lost {
			reason = why
		}
		out.Results = append(out.Results, proto.SlotResult{
			Rank: slot.Rank, Replica: slot.Replica, OK: false, Err: reason,
		})
	}
	sort.Slice(out.Results, func(i, j int) bool {
		if out.Results[i].Rank != out.Results[j].Rank {
			return out.Results[i].Rank < out.Results[j].Rank
		}
		return out.Results[i].Replica < out.Results[j].Replica
	})

	// Failover accounting: a rank failed over when it delivered but its
	// leader (replica 0) was not among the survivors. RanksLost comes
	// from the detector (collector) — only ranks *confirmed* unable to
	// deliver count, not ranks merely pending when an early abort cut
	// the wait short.
	for rank := 0; rank < spec.N; rank++ {
		if oks := okReplicas[rank]; len(oks) > 0 && slices.Min(oks) > 0 {
			out.Failover.Failovers++
		}
	}
	// Preemption outranks the detector's verdict: a killed job's ranks
	// are "lost" by design, and reporting them as ErrRanksLost would
	// send the job back through churn's re-book path — undoing the
	// eviction the scheduler just paid for.
	if s.pre != nil && s.pre.Killed() {
		return out, fmt.Errorf("%w: job %s", ErrPreempted, s.jobID)
	}
	if spec.FailureDetect > 0 && out.Failover.RanksLost > 0 {
		return out, fmt.Errorf("%w: %d of %d ranks", ErrRanksLost, out.Failover.RanksLost, spec.N)
	}
	return out, nil
}

// rpcDeadline bounds one retried exchange for fan-out stall timers:
// every attempt's timeout plus the largest possible backoff sequence.
// Identical to the bare timeout when retries are off.
func (m *MPD) rpcDeadline(timeout time.Duration) time.Duration {
	r := m.cfg.RPCRetries
	if r <= 0 {
		return timeout
	}
	base := m.cfg.RPCBackoff
	if base <= 0 {
		base = time.Second
	}
	maxBackoff := time.Duration(1.5 * float64(base) * float64((uint64(1)<<uint(r))-1))
	return time.Duration(r+1)*timeout + maxBackoff
}

// notify sends one request frame to addr from a fresh actor and drops
// the answer: fire-and-forget, for the cancels and kills whose
// receivers are idempotent and whose loss a timeout or the crash path
// already covers. An empty address — a peer without that service — is
// skipped.
func (m *MPD) notify(addr string, frame any) {
	if addr == "" {
		return
	}
	m.rt.Go("mpd.notify."+m.cfg.Self.ID, func() {
		reply, err := transport.RequestReply(m.net, addr,
			transport.Message{Payload: proto.MustMarshal(frame)}, m.cfg.ReserveTimeout)
		if err == nil {
			reply.Release()
		}
	})
}

// packAlgorithms flattens the algorithm selectors into the wire layout
// of proto.Prepare.Algorithms.
func packAlgorithms(a mpi.Algorithms) [5]int {
	return [5]int{int(a.Bcast), int(a.Reduce), int(a.Allreduce),
		int(a.Allgather), int(a.Alltoall)}
}

// unpackAlgorithms reverses packAlgorithms.
func unpackAlgorithms(v [5]int) mpi.Algorithms {
	return mpi.Algorithms{
		Bcast:     mpi.BcastAlg(v[0]),
		Reduce:    mpi.ReduceAlg(v[1]),
		Allreduce: mpi.AllreduceAlg(v[2]),
		Allgather: mpi.AllgatherAlg(v[3]),
		Alltoall:  mpi.AlltoallAlg(v[4]),
	}
}

// Hostname is the built-in program used by the paper's co-allocation
// experiment: every process simply echoes the name of its host.
func Hostname(env *Env) error {
	_, err := fmt.Fprintf(&env.Out, "%s", env.HostID)
	return err
}

// Spin is the built-in program of the churn experiments: it occupies
// its process for the duration given as the job's first argument (a
// bare number of seconds like "90", or a Go duration like "2m30s";
// default 30s), then echoes its host name like Hostname. A run long
// enough for seeded failures to strike mid-flight is what turns the
// replication degree into an observable survival edge.
func Spin(env *Env) error {
	d := 30 * time.Second
	if len(env.Args) > 0 {
		if secs, err := strconv.ParseFloat(env.Args[0], 64); err == nil {
			d = time.Duration(secs * float64(time.Second))
		} else if pd, err := time.ParseDuration(env.Args[0]); err == nil {
			d = pd
		} else {
			return fmt.Errorf("spin: bad duration %q", env.Args[0])
		}
	}
	if d > 0 {
		// Preemptible: a checkpoint-kill mid-spin ends the process with
		// ErrPreempted instead of burning the rest of the duration. For
		// non-preemptable jobs this is exactly RT.Sleep.
		if err := env.SleepPreemptible(d); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(&env.Out, "%s", env.HostID)
	return err
}
