package exp

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"p2pmpi/internal/churn"
	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/mpd"
	"p2pmpi/internal/sched"
	"p2pmpi/internal/stats"
	"p2pmpi/internal/vtime"
	"p2pmpi/internal/workload"
)

// The open-system experiment family replaces the closed K-job batches
// with what a production platform actually sees: jobs arriving on their
// own clock — Poisson or diurnal rate curves with maintenance
// blackouts, heavy-tailed sizes and durations, multi-tenant users with
// skewed rates and stratified priorities (internal/workload) — replayed
// against a booted world through the priority scheduler, for hours of
// virtual steady state. Every per-job metric goes into streaming
// sketches (internal/stats), so a point's memory footprint is O(1) in
// the submission count: a million-submission sweep holds a few t-digest
// centroids, not a million samples. Reported per (strategy) point:
// steady-state utilization, queue-wait percentiles, bounded-slowdown
// percentiles, and Jain fairness over the per-tenant mean slowdown.

// OpenPoint is one steady-state measurement of a strategy under an
// open arrival process.
type OpenPoint struct {
	Strategy core.Strategy
	// Arrival echoes the arrival spec (ParseArrivalSpec syntax).
	Arrival string
	// Tenants, N, R and Hosts echo the workload and world shape (N is
	// the mean drawn width over measured submissions).
	Tenants int
	R       int
	Hosts   int
	// HorizonSeconds and WarmupSeconds bound the arrival timeline and
	// the truncated transient.
	HorizonSeconds, WarmupSeconds float64
	// Submitted counts all replayed submissions; Measured the ones past
	// warm-up that the statistics cover; Completed/Failed partition the
	// measured ones by outcome.
	Submitted, Measured, Completed, Failed int
	// MeanN averages the drawn job width over measured submissions.
	MeanN float64
	// Utilization is the measured busy slot-seconds (service time ×
	// width, completed jobs) over the platform's slot capacity for the
	// post-warm-up window.
	Utilization float64
	// MeanWaitSeconds and the percentiles summarize queue wait —
	// enqueue-to-finish latency minus service time, clamped at 0 — from
	// a t-digest (documented rank error ≤ stats.TDigest.MaxRankError).
	MeanWaitSeconds                float64
	WaitP50Seconds, WaitP90Seconds float64
	WaitP99Seconds                 float64
	// MeanSlowdown and SlowdownP99 summarize bounded slowdown:
	// max(1, latency / max(service, 10s)).
	MeanSlowdown, SlowdownP99 float64
	// JainFairness is Jain's index over the per-tenant mean bounded
	// slowdown of measured completed jobs (1 = perfectly even).
	JainFairness float64
	// FailuresInjected and DownFraction report composed churn (zero
	// when the point ran failure-free).
	FailuresInjected int
	DownFraction     float64
	// QuotaThrottleRate is the fraction of admission decisions that
	// bypassed the head-of-queue job because its tenant was over budget
	// (0 with quotas off); Preemptions counts running jobs checkpoint-
	// killed to make room for in-budget work.
	QuotaThrottleRate float64
	Preemptions       int
	// SLOAttainment is the fraction of measured deadline-carrying jobs
	// that finished within their deadline (failed jobs count as missed);
	// TardinessP99Seconds is the 99th-percentile lateness among
	// completed violators. Both stay 0 without DeadlineFactors.
	SLOAttainment       float64
	TardinessP99Seconds float64
}

// WarmupAuto selects the default warm-up of Duration/10. It exists so
// an explicit Warmup of zero can mean "measure from t=0": the zero
// value used to be silently rewritten to Duration/10, which made a
// deliberate no-warm-up sweep impossible to request.
const WarmupAuto = time.Duration(-1)

// OpenConfig tunes an open-system sweep.
type OpenConfig struct {
	// Base is the topology template (synthetic or grid5000).
	Base grid.TopologySpec
	// Strategies lists the policies to compare (default: every
	// registered strategy).
	Strategies []core.Strategy
	// Arrival is the platform-wide arrival process (required).
	Arrival workload.ArrivalSpec
	// Tenants, TenantSkew and PriorityLevels shape the user population
	// (defaults 1 / 0 / 1; see workload.Config).
	Tenants        int
	TenantSkew     float64
	PriorityLevels int
	// Duration is the arrival horizon (required); Warmup is the leading
	// transient excluded from the statistics — WarmupAuto picks
	// Duration/10, zero (and any other negative) disables truncation.
	Duration, Warmup time.Duration
	// R is the replication degree per job (default 1).
	R int
	// NMin, NMax, DurMin and DurMax forward to workload.Config
	// (bounded-Pareto widths and service durations; zero keeps the
	// workload defaults).
	NMin, NMax     int
	DurMin, DurMax float64
	// MaxSubmissions caps the trace per point (0 = no cap).
	MaxSubmissions int
	// Workers bounds the scheduler's in-flight jobs (default 8).
	Workers int
	// MTBF composes host churn with the open workload (0 = failure-free).
	// MTTR, Dist, WeibullShape, SiteMTBF and SiteMTTR mirror ChurnConfig;
	// Detect arms the mid-run failure detector (default 10s when churning).
	MTBF, MTTR         time.Duration
	Dist               churn.DistKind
	WeibullShape       float64
	SiteMTBF, SiteMTTR time.Duration
	Detect             time.Duration
	// QuotaRate and QuotaBurst arm per-tenant token-bucket quotas in the
	// scheduler (slot-seconds per virtual second / slot-seconds; zero
	// rate disables, zero burst defaults to an hour at rate). Preempt
	// additionally lets starved in-budget jobs checkpoint-kill the
	// lowest-priority over-budget running job. See sched.Config.
	QuotaRate, QuotaBurst float64
	Preempt               bool
	// DeadlineFactors forwards per-priority-class deadline multipliers
	// to workload.Config: priority class p gets a deadline of
	// At + DeadlineFactors[p]×Seconds (last entry reused beyond the
	// slice; empty disables deadlines).
	DeadlineFactors []float64

	// observe, when set, sees every measured job next to its submission
	// (tests compare sketch percentiles against exact samples).
	observe func(j *sched.Job, sub workload.Submission)
}

func (c *OpenConfig) fillDefaults() error {
	if len(c.Strategies) == 0 {
		c.Strategies = core.Strategies()
	}
	if err := c.Arrival.Validate(); err != nil {
		return err
	}
	if c.Duration <= 0 {
		return fmt.Errorf("exp: open sweep needs a positive -duration")
	}
	if c.Warmup == WarmupAuto {
		c.Warmup = c.Duration / 10
	} else if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.Warmup >= c.Duration {
		return fmt.Errorf("exp: warmup %v must be shorter than duration %v", c.Warmup, c.Duration)
	}
	if c.Tenants <= 0 {
		c.Tenants = 1
	}
	if c.R <= 0 {
		c.R = 1
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.MTBF > 0 {
		if c.MTTR <= 0 {
			c.MTTR = time.Minute
		}
		if c.Detect <= 0 {
			c.Detect = 10 * time.Second
		}
	}
	return nil
}

// workloadConfig assembles the trace generator input for one point. It
// deliberately excludes the strategy: every strategy compared in one
// sweep replays the identical arrival timeline, so cross-strategy
// differences are attributable to policy, not trace luck.
func (c OpenConfig) workloadConfig(seed int64) workload.Config {
	return workload.Config{
		// Fanned out away from the world's own jitter streams.
		Seed:           subSeed(seed, "open|workload"),
		Arrival:        c.Arrival,
		Tenants:        c.Tenants,
		TenantSkew:     c.TenantSkew,
		PriorityLevels: c.PriorityLevels,
		NMin:           c.NMin, NMax: c.NMax,
		DurMin: c.DurMin, DurMax: c.DurMax,
		Horizon:         c.Duration,
		MaxSubmissions:  c.MaxSubmissions,
		DeadlineFactors: c.DeadlineFactors,
	}
}

// openAccum accumulates one point's statistics in O(1) memory per
// metric: two t-digest streams for the platform-wide distributions plus
// O(tenants) moments for fairness. The million-submission footprint
// test feeds this path directly.
type openAccum struct {
	wait, slow, tard *stats.Stream
	tenantSlow       []float64 // per-tenant slowdown sums
	tenantJobs       []int64
	busyProcSec      float64
	widthSum         float64
	measured         int
	completed        int
	failed           int
	withDeadline     int
	sloMet           int
	violators        int
}

func newOpenAccum(tenants int) *openAccum {
	return &openAccum{
		wait:       stats.NewStream(),
		slow:       stats.NewStream(),
		tard:       stats.NewStream(),
		tenantSlow: make([]float64, tenants),
		tenantJobs: make([]int64, tenants),
	}
}

// observe folds one measured job in. waitS and slowdown are ignored
// for failed jobs (they never completed, so neither is defined).
func (a *openAccum) observe(tenant, width int, waitS, slowdown, serviceS float64, failed bool) {
	a.measured++
	a.widthSum += float64(width)
	if failed {
		a.failed++
		return
	}
	a.completed++
	a.wait.Add(waitS)
	a.slow.Add(slowdown)
	a.busyProcSec += serviceS * float64(width)
	// The per-tenant moments grow to fit whatever id arrives: an
	// out-of-range tenant (a caller sizing the accumulator low, or a
	// trace with sparse ids) must shift the fairness index, not silently
	// vanish from it. Only negative ids — not addressable — are dropped.
	if tenant >= 0 {
		for tenant >= len(a.tenantSlow) {
			a.tenantSlow = append(a.tenantSlow, 0)
			a.tenantJobs = append(a.tenantJobs, 0)
		}
		a.tenantSlow[tenant] += slowdown
		a.tenantJobs[tenant]++
	}
}

// observeDeadline folds one measured deadline-carrying job's SLO
// outcome. Failed jobs count as missed but contribute no tardiness
// sample (work that never finished has no finite lateness); completed
// jobs split into on-time and violators, whose lateness in seconds
// feeds the tardiness digest.
func (a *openAccum) observeDeadline(failed bool, tardS float64) {
	a.withDeadline++
	if failed {
		return
	}
	if tardS <= 0 {
		a.sloMet++
		return
	}
	a.violators++
	a.tard.Add(tardS)
}

// jain computes Jain's fairness index over the per-tenant mean
// slowdowns (tenants with no measured completions are skipped).
func (a *openAccum) jain() float64 {
	var sum, sumSq float64
	var n int
	for i, jobs := range a.tenantJobs {
		if jobs == 0 {
			continue
		}
		mean := a.tenantSlow[i] / float64(jobs)
		sum += mean
		sumSq += mean * mean
		n++
	}
	if n == 0 || sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(n) * sumSq)
}

// boundedSlowdown is the standard queueing metric: latency over service
// time, with service floored at 10s so sub-second jobs cannot blow the
// ratio up, and the whole thing floored at 1.
func boundedSlowdown(latency, service float64) float64 {
	const floor = 10
	s := math.Max(service, floor)
	return math.Max(1, latency/s)
}

// jobIDHeap is the fold's reorder buffer: completed jobs arrive in
// completion order and leave in trace (ID) order.
type jobIDHeap []*sched.Job

func (h jobIDHeap) Len() int           { return len(h) }
func (h jobIDHeap) Less(i, j int) bool { return h[i].ID < h[j].ID }
func (h jobIDHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *jobIDHeap) Push(x any)        { *h = append(*h, x.(*sched.Job)) }
func (h *jobIDHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// RunOpen boots one world, replays the open arrival stream through the
// priority scheduler (optionally under churn and quotas), and reduces
// the steady-state window to an OpenPoint. The trace is never
// materialized: submissions are generated lazily (workload.Stream) and
// completed jobs are folded into the sketches as they finish, so a
// week-long multi-million-submission replay holds the in-flight
// backlog, not the horizon.
func RunOpen(opts Options, cfg OpenConfig, strategy core.Strategy) (OpenPoint, error) {
	if err := cfg.fillDefaults(); err != nil {
		return OpenPoint{}, err
	}
	wc := cfg.workloadConfig(opts.Seed)
	stream, err := workload.NewStream(wc)
	if err != nil {
		return OpenPoint{}, err
	}
	if _, ok := stream.Peek(); !ok {
		return OpenPoint{}, fmt.Errorf("exp: open trace is empty — raise the rate or the duration")
	}

	// The job shape the trace actually draws sizes both the attempt
	// timeout and the large-world reply bound.
	shape := wc.WithDefaults()
	timeout := time.Duration(3*shape.DurMax)*time.Second + 2*time.Minute

	o := opts
	o.Topology = cfg.Base
	if cfg.Base.TotalHosts() > 1000 {
		// On big worlds the long steady-state horizon would drown in
		// O(world) host-list replies; see Options.boundMembership.
		o.boundMembership(shape.NMax * cfg.R)
	}
	if cfg.Duration >= 24*time.Hour {
		// Long-horizon diet: at the paper's 20s frontal cadence a week of
		// virtual time is ~30k probe rounds over every host — the replay
		// spends its wall clock on liveness traffic no measurement
		// consumes. Day-plus horizons slacken every cadence still at its
		// default; an explicit setting always wins.
		if o.FrontalPingInterval == 20*time.Second {
			o.FrontalPingInterval = 10 * time.Minute
		}
		if o.PeerAliveInterval == 0 {
			o.PeerAliveInterval = 30 * time.Minute
		}
		if o.PeerRefreshInterval == 0 {
			o.PeerRefreshInterval = 2 * time.Hour
		}
		if o.PeerCacheCap == 0 {
			o.PeerCacheCap = 2
		}
		if o.MaxPeersReturned == 0 {
			o.MaxPeersReturned = 512
		}
	}
	w := NewWorld(o)
	defer w.Close()
	if err := w.Boot(); err != nil {
		return OpenPoint{}, err
	}

	// The slack beyond the horizon no longer scales with trace length —
	// the stream's length is unknown up front — so every point gets the
	// 64-job drain allowance on top of its duration.
	budget := int(cfg.Duration/time.Second) + runJobsBudget(64)
	var churnDriver *churn.Driver
	if cfg.MTBF > 0 {
		churnDriver = w.StartChurn(churn.Config{
			// Like the churn family's seed, a pure function of the failure
			// model, so every strategy faces the identical timeline.
			Seed:         subSeed(opts.Seed, "open|churn|%d|%d", cfg.MTBF, cfg.MTTR),
			MTBF:         cfg.MTBF,
			MTTR:         cfg.MTTR,
			UpDist:       cfg.Dist,
			DownDist:     cfg.Dist,
			WeibullShape: cfg.WeibullShape,
			SiteMTBF:     cfg.SiteMTBF,
			SiteMTTR:     cfg.SiteMTTR,
			Horizon:      time.Duration(budget) * time.Second,
		})
	}

	sc := sched.New(w.S, w.Frontal, w.HostSlots(), sched.Config{
		Workers:      cfg.Workers,
		Retries:      4,
		Backoff:      5 * time.Second,
		Seed:         opts.Seed,
		IsContention: ChurnRetryable,
		QuotaRate:    cfg.QuotaRate,
		QuotaBurst:   cfg.QuotaBurst,
		Preempt:      cfg.Preempt,
	})
	// pending holds each submission only from enqueue to fold — with the
	// reorder buffer below, the sole per-submission state the replay
	// retains. Guarded by pmu: the hook runs on the driver actor, the
	// fold on the harness actor.
	var (
		pmu      sync.Mutex
		pending  = make(map[int]workload.Submission)
		enqueued int
	)
	drv := workload.NewStreamDriver(w.S, stream.Next, func(sub workload.Submission) {
		spec := mpd.JobSpec{
			Program:        "spin",
			Args:           []string{fmt.Sprintf("%g", sub.Seconds)},
			N:              sub.N,
			R:              cfg.R,
			Strategy:       strategy,
			Timeout:        timeout,
			FailureDetect:  cfg.Detect,
			ReserveRetries: 1,
		}
		if job := sc.EnqueuePri(spec, sub.Tenant, sub.Priority); job != nil {
			pmu.Lock()
			pending[job.ID] = sub
			enqueued++
			pmu.Unlock()
		}
	})

	// The driver is the scheduler's only client, so job IDs equal stream
	// sequence numbers. Reduce in trace order — never completion order —
	// via a min-heap reorder buffer that releases contiguous IDs from 0,
	// so the sketch state is a pure function of the job set and the CSV
	// is byte-identical across -workers/-shards/-sn.
	acc := newOpenAccum(cfg.Tenants)
	var reorder jobIDHeap
	// popped counts jobs taken off the completion mailbox; folded the
	// ones released from the reorder buffer in ID order. They diverge
	// while an ID gap is in flight, so the drain phase must wait on
	// popped — not folded — or it would over-ask the mailbox.
	popped, folded := 0, 0
	fold := func(jobs []*sched.Job) error {
		popped += len(jobs)
		for _, j := range jobs {
			heap.Push(&reorder, j)
		}
		for len(reorder) > 0 && reorder[0].ID == folded {
			j := heap.Pop(&reorder).(*sched.Job)
			pmu.Lock()
			sub, ok := pending[j.ID]
			delete(pending, j.ID)
			pmu.Unlock()
			if !ok || sub.Seq != j.ID {
				return fmt.Errorf("exp: job %d does not match a pending submission", j.ID)
			}
			folded++
			if sub.At < cfg.Warmup {
				continue // warm-up transient
			}
			latency := j.Latency().Seconds()
			wait := math.Max(0, latency-sub.Seconds)
			failed := j.Err != nil || j.Result == nil || j.Result.LostRanks() > 0
			acc.observe(sub.Tenant, sub.N, wait, boundedSlowdown(latency, sub.Seconds), sub.Seconds, failed)
			if sub.Deadline > 0 {
				acc.observeDeadline(failed, (sub.At.Seconds()+latency)-sub.Deadline.Seconds())
			}
			if cfg.observe != nil {
				cfg.observe(j, sub)
			}
		}
		return nil
	}

	_, err = submitPumped(w, budget, "exp.open", func() (struct{}, error) {
		sc.Start()
		drv.Start()
		start := w.S.Now()
		left := func() time.Duration {
			d := time.Duration(budget)*time.Second - w.S.Now().Sub(start)
			if d < 0 {
				d = 0
			}
			return d
		}
		// Phase 1: fold completions while the replay still feeds, so the
		// retained handles track the in-flight backlog, not the horizon.
		for !drv.Drained() {
			if left() == 0 {
				return struct{}{}, fmt.Errorf("exp: open replay exhausted its %ds budget after %d jobs", budget, folded)
			}
			jobs, werr := sc.WaitTimeout(1, time.Second)
			if werr != nil && !errors.Is(werr, vtime.ErrTimeout) {
				return struct{}{}, fmt.Errorf("exp: open completion stream closed after %d jobs: %w", folded, werr)
			}
			if ferr := fold(jobs); ferr != nil {
				return struct{}{}, ferr
			}
		}
		// Phase 2: the stream is fully enqueued; wait out the stragglers.
		pmu.Lock()
		total := enqueued
		pmu.Unlock()
		if popped < total {
			jobs, werr := sc.WaitTimeout(total-popped, left())
			if ferr := fold(jobs); ferr != nil {
				return struct{}{}, ferr
			}
			if werr != nil && folded < total {
				return struct{}{}, fmt.Errorf("exp: open workload stalled after %d/%d jobs: %w", folded, total, werr)
			}
		}
		if folded != total {
			return struct{}{}, fmt.Errorf("exp: open fold incomplete: %d of %d jobs", folded, total)
		}
		sc.Close()
		return struct{}{}, nil
	})
	drvStats := drv.Stop()
	var injected churn.Stats
	if churnDriver != nil {
		injected = churnDriver.Stop()
	}
	if err != nil {
		return OpenPoint{}, err
	}
	if drvStats.Submitted != folded {
		return OpenPoint{}, fmt.Errorf("exp: driver replayed %d submissions but %d completed", drvStats.Submitted, folded)
	}
	scStats := sc.Stats()

	pt := OpenPoint{
		Strategy:         strategy,
		Arrival:          cfg.Arrival.String(),
		Tenants:          cfg.Tenants,
		R:                cfg.R,
		Hosts:            w.Grid.TotalHosts(),
		HorizonSeconds:   cfg.Duration.Seconds(),
		WarmupSeconds:    cfg.Warmup.Seconds(),
		Submitted:        drvStats.Submitted,
		Measured:         acc.measured,
		Completed:        acc.completed,
		Failed:           acc.failed,
		FailuresInjected: injected.Failures,
		DownFraction:     injected.DownFraction(),
		Preemptions:      scStats.Preemptions,
	}
	if scStats.Enqueued > 0 {
		pt.QuotaThrottleRate = float64(scStats.Throttled) / float64(scStats.Enqueued)
	}
	if acc.withDeadline > 0 {
		pt.SLOAttainment = float64(acc.sloMet) / float64(acc.withDeadline)
	}
	if acc.violators > 0 {
		pt.TardinessP99Seconds = acc.tard.Quantile(0.99)
	}
	if acc.measured > 0 {
		pt.MeanN = acc.widthSum / float64(acc.measured)
	}
	if acc.completed > 0 {
		pt.MeanWaitSeconds = acc.wait.Mean()
		pt.WaitP50Seconds = acc.wait.Quantile(0.50)
		pt.WaitP90Seconds = acc.wait.Quantile(0.90)
		pt.WaitP99Seconds = acc.wait.Quantile(0.99)
		pt.MeanSlowdown = acc.slow.Mean()
		pt.SlowdownP99 = acc.slow.Quantile(0.99)
		pt.JainFairness = acc.jain()
	}
	var totalProcs float64
	for _, h := range w.Grid.Hosts {
		totalProcs += float64(h.Cores)
	}
	if window := (cfg.Duration - cfg.Warmup).Seconds(); totalProcs > 0 && window > 0 {
		pt.Utilization = acc.busyProcSec / (totalProcs * window)
	}
	return pt, nil
}

// OpenSweep measures every configured strategy against the identical
// arrival timeline. Each strategy owns an independent, freshly booted
// world, so points run across a bounded pool with byte-identical
// results to a sequential run. Results follow cfg.Strategies order.
func OpenSweep(opts Options, cfg OpenConfig, workers int) ([]OpenPoint, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	coords := make([]openCoord, len(cfg.Strategies))
	for i, st := range cfg.Strategies {
		coords[i] = openCoord(st)
	}
	return sweep(coords, workers, func(c openCoord) ([]OpenPoint, error) {
		pt, err := RunOpen(opts, cfg, core.Strategy(c))
		return []OpenPoint{pt}, err
	})
}

type openCoord core.Strategy

func (c openCoord) String() string { return "open " + string(c) }

// OpenPointsCSV renders an open sweep as CSV, one row per strategy.
func OpenPointsCSV(pts []OpenPoint) string {
	var b strings.Builder
	b.WriteString("strategy,arrival,tenants,r,hosts,horizon_s,warmup_s,submitted,measured," +
		"completed,failed,mean_n,utilization,mean_wait_s,wait_p50_s,wait_p90_s,wait_p99_s," +
		"mean_slowdown,slowdown_p99,jain,failures_injected,down_fraction," +
		"quota_throttle_rate,preemptions,slo_attainment,tardiness_p99\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%.0f,%.0f,%d,%d,%d,%d,%.2f,%.4f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.4f,%d,%.4f,%.4f,%d,%.4f,%.3f\n",
			p.Strategy, p.Arrival, p.Tenants, p.R, p.Hosts, p.HorizonSeconds, p.WarmupSeconds,
			p.Submitted, p.Measured, p.Completed, p.Failed, p.MeanN, p.Utilization,
			p.MeanWaitSeconds, p.WaitP50Seconds, p.WaitP90Seconds, p.WaitP99Seconds,
			p.MeanSlowdown, p.SlowdownP99, p.JainFairness, p.FailuresInjected, p.DownFraction,
			p.QuotaThrottleRate, p.Preemptions, p.SLOAttainment, p.TardinessP99Seconds)
	}
	return b.String()
}

// RenderOpenPoints prints an open sweep as a table.
func RenderOpenPoints(title string, pts []OpenPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s %6s %5s %5s %7s %8s %8s %8s %8s %8s %6s %7s %7s\n",
		"strategy", "jobs", "done", "fail", "util", "wait-p50", "wait-p90", "wait-p99", "slow-p99", "jain", "down%", "preempt", "slo%")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-12s %6d %5d %5d %6.1f%% %7.1fs %7.1fs %7.1fs %8.2f %8.3f %5.1f%% %7d %6.1f%%\n",
			p.Strategy, p.Measured, p.Completed, p.Failed, 100*p.Utilization,
			p.WaitP50Seconds, p.WaitP90Seconds, p.WaitP99Seconds,
			p.SlowdownP99, p.JainFairness, 100*p.DownFraction,
			p.Preemptions, 100*p.SLOAttainment)
	}
	return b.String()
}
