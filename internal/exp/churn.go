package exp

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"p2pmpi/internal/churn"
	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/mpd"
	"p2pmpi/internal/sched"
)

// The churn experiment family measures survivability — the axis the
// paper's failure-free Grid'5000 snapshot never exercised, although
// replication is P2P-MPI's founding feature. Each point boots a fresh
// world, lets a seeded fault-injection driver cycle hosts down and up
// (churn.Trace over MTBF/MTTR distributions, optionally with
// correlated site outages), and pushes a batch of fixed-duration jobs
// through the multi-job scheduler with the mid-run failure detector
// armed. What comes out, per (strategy, MTBF, replication degree R):
// the job success rate, the completion-time inflation over the
// failure-free baseline, replica failovers per job, and the wasted
// (re-booked) slot-hours — the experimental story for the replication
// degree of the original P2P-MPI system.

// ChurnPoint is one (strategy, MTBF, R) measurement.
type ChurnPoint struct {
	Strategy core.Strategy
	// MTBFSeconds and MTTRSeconds echo the injected failure model.
	MTBFSeconds, MTTRSeconds float64
	// N, R and Jobs echo the submitted batch.
	N, R, Jobs int
	// Hosts is the booted world size.
	Hosts int
	// Succeeded and Failed partition the batch by outcome.
	Succeeded, Failed int
	// SuccessRate is Succeeded / Jobs.
	SuccessRate float64
	// MeanSeconds averages the enqueue-to-finish virtual time of
	// succeeded jobs; Inflation divides it by the failure-free job
	// duration (queueing, detection and re-booking included).
	MeanSeconds float64
	Inflation   float64
	// Failovers counts ranks rescued by a backup replica, summed over
	// succeeded jobs; HostsLostMidRun counts hosts the detectors wrote
	// off, summed over all final attempts.
	Failovers       int
	HostsLostMidRun int
	// Rebooks counts extra submission attempts beyond the first, and
	// WastedSlotHours charges every errored attempt's duration times
	// the job's process count — the capacity burned without producing
	// a completed job.
	Rebooks         int
	WastedSlotHours float64
	// FailuresInjected and DownFraction report what the churn engine
	// actually did: deduplicated host failures fired, and the measured
	// fraction of host-time spent down.
	FailuresInjected int
	DownFraction     float64
}

// ChurnConfig tunes a churn sweep.
type ChurnConfig struct {
	// Base is the topology template (synthetic or grid5000).
	Base grid.TopologySpec
	// Strategies lists the policies to compare (default: every
	// registered strategy).
	Strategies []core.Strategy
	// MTBFs is the mean-time-between-failures axis.
	MTBFs []time.Duration
	// Rs is the replication-degree axis (default {1, 2}).
	Rs []int
	// N is the rank count per job (default 16).
	N int
	// Jobs is the batch size per point (default 8).
	Jobs int
	// JobSeconds is the spin duration of each job — the failure-free
	// completion baseline (default 120).
	JobSeconds float64
	// MTTR is the mean repair time (default 60s).
	MTTR time.Duration
	// Dist selects the lifetime distribution for uptimes and downtimes
	// (default exponential; weibull is heavy-tailed with WeibullShape).
	Dist         churn.DistKind
	WeibullShape float64
	// SiteMTBF and SiteMTTR enable correlated whole-site outages
	// (0 disables).
	SiteMTBF, SiteMTTR time.Duration
	// Retries is the per-job re-book budget (default 4).
	Retries int
	// Detect is the failure-detector probe period (default 10s).
	Detect time.Duration
}

func (c *ChurnConfig) fillDefaults() error {
	if len(c.Strategies) == 0 {
		c.Strategies = core.Strategies()
	}
	if len(c.MTBFs) == 0 {
		return fmt.Errorf("exp: churn sweep needs at least one MTBF (-mtbf)")
	}
	for _, m := range c.MTBFs {
		if m <= 0 {
			return fmt.Errorf("exp: bad MTBF %v", m)
		}
	}
	if len(c.Rs) == 0 {
		c.Rs = []int{1, 2}
	}
	for _, r := range c.Rs {
		if r < 1 {
			return fmt.Errorf("exp: bad replication degree %d", r)
		}
	}
	if c.N <= 0 {
		c.N = 16
	}
	if c.Jobs <= 0 {
		c.Jobs = 8
	}
	if c.JobSeconds <= 0 {
		c.JobSeconds = 120
	}
	if c.MTTR <= 0 {
		c.MTTR = time.Minute
	}
	if c.Retries <= 0 {
		c.Retries = 4
	}
	if c.Detect <= 0 {
		c.Detect = 10 * time.Second
	}
	return nil
}

// ChurnRetryable classifies the errors worth a re-book under churn:
// contention (the scheduler's default) plus the two failure outcomes —
// a host dying between Acquire and launch, and a rank losing every
// replica mid-run. Both churn surfaces (the sweep and p2pmpirun's
// -mtbf mode) share it so they agree on what the re-book path covers.
func ChurnRetryable(err error) bool {
	return errors.Is(err, mpd.ErrNotEnoughPeers) ||
		errors.Is(err, sched.ErrSaturated) ||
		errors.Is(err, mpd.ErrLaunchFailed) ||
		errors.Is(err, mpd.ErrRanksLost)
}

// ChurnSweep measures every configured strategy at every (MTBF, R)
// point. Each point owns an independent, freshly booted world with its
// own injection trace, so points run across a bounded pool with
// byte-identical results to a sequential run. Results are ordered
// (MTBF, R, strategy).
func ChurnSweep(opts Options, cfg ChurnConfig, workers int) ([]ChurnPoint, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	var coords []churnCoord
	for _, mtbf := range cfg.MTBFs {
		for _, r := range cfg.Rs {
			for _, st := range cfg.Strategies {
				coords = append(coords, churnCoord{mtbf, r, st})
			}
		}
	}
	return sweep(coords, workers, func(c churnCoord) ([]ChurnPoint, error) {
		pt, err := churnAt(opts, cfg, c)
		return []ChurnPoint{pt}, err
	})
}

type churnCoord struct {
	mtbf     time.Duration
	r        int
	strategy core.Strategy
}

func (c churnCoord) String() string { return fmt.Sprintf("mtbf=%v r=%d %s", c.mtbf, c.r, c.strategy) }

// churnAt boots one world, injects churn, and runs the batch.
func churnAt(opts Options, cfg ChurnConfig, c churnCoord) (ChurnPoint, error) {
	o := opts
	o.Topology = cfg.Base
	if cfg.Base.TotalHosts() > 1000 {
		// Large worlds over the long churn horizon drown in membership
		// traffic; see Options.boundMembership.
		o.boundMembership(cfg.N * c.r)
	}
	w := NewWorld(o)
	defer w.Close()
	if err := w.Boot(); err != nil {
		return ChurnPoint{}, err
	}

	batch := spinBatch{
		Strategy: c.strategy,
		N:        cfg.N, R: c.r, Jobs: cfg.Jobs,
		Seconds: cfg.JobSeconds,
		Detect:  cfg.Detect,
		Retries: cfg.Retries,
	}
	driver := w.StartChurn(churn.Config{
		// The injection seed is a pure function of the (MTBF, R)
		// coordinates — and deliberately NOT of the strategy: the
		// host-level failure timeline is placement-independent, so every
		// strategy compared at one (MTBF, R) point faces the identical
		// trace, and cross-strategy differences stay attributable to
		// policy rather than trace luck.
		Seed:         subSeed(opts.Seed, "churn|%d|%d", c.mtbf, c.r),
		MTBF:         c.mtbf,
		MTTR:         cfg.MTTR,
		UpDist:       cfg.Dist,
		DownDist:     cfg.Dist,
		WeibullShape: cfg.WeibullShape,
		SiteMTBF:     cfg.SiteMTBF,
		SiteMTTR:     cfg.SiteMTTR,
		Horizon:      batch.horizon(),
	})
	b, err := batch.run(w, opts.Seed)
	injected := driver.Stop()
	if err != nil {
		return ChurnPoint{}, err
	}
	return ChurnPoint{
		Strategy:    c.strategy,
		MTBFSeconds: c.mtbf.Seconds(),
		MTTRSeconds: cfg.MTTR.Seconds(),
		N:           cfg.N, R: c.r, Jobs: cfg.Jobs,
		Hosts:     w.Grid.TotalHosts(),
		Succeeded: b.Succeeded, Failed: b.Failed, SuccessRate: b.SuccessRate,
		MeanSeconds: b.MeanSeconds, Inflation: b.Inflation,
		Failovers: b.Failovers, HostsLostMidRun: b.HostsLost,
		Rebooks: b.Rebooks, WastedSlotHours: b.WastedSlotHours,
		FailuresInjected: injected.Failures,
		DownFraction:     injected.DownFraction(),
	}, nil
}

// spinBatch is the closed job batch the churn and nemesis families
// measure: Jobs identical fixed-duration spin jobs pushed through the
// multi-job scheduler with the mid-run failure detector armed and
// ChurnRetryable failures re-booked. Two jobs run at a time, keeping
// capacity pressure low so the measurement isolates survivability from
// saturation.
type spinBatch struct {
	Strategy   core.Strategy
	N, R, Jobs int
	// Seconds is each job's spin duration, the failure-free completion
	// baseline.
	Seconds float64
	Detect  time.Duration
	Retries int
}

// horizon is the batch's pump budget (RunJobs'); fault injection runs
// that long so failures keep arriving while jobs can still be running.
func (b spinBatch) horizon() time.Duration {
	return time.Duration(runJobsBudget(b.Jobs)) * time.Second
}

// batchOutcome folds a spinBatch's jobs.
type batchOutcome struct {
	// Succeeded and Failed partition the batch by the replication-level
	// criterion: every rank delivered through at least one replica.
	Succeeded, Failed int
	SuccessRate       float64
	// MeanSeconds averages the enqueue-to-finish virtual time of
	// succeeded jobs; Inflation divides it by the spin duration.
	MeanSeconds, Inflation float64
	// Failovers sums rescued ranks over succeeded jobs, HostsLost the
	// detectors' write-offs over all final attempts, Rebooks the extra
	// attempts beyond the first, and WastedSlotHours every errored
	// attempt's duration times the job's process count.
	Failovers, HostsLost, Rebooks int
	WastedSlotHours               float64
}

// run pushes the batch through a fresh scheduler on w and folds the
// outcomes.
func (b spinBatch) run(w *World, seed int64) (batchOutcome, error) {
	spec := mpd.JobSpec{
		Program:        "spin",
		Args:           []string{fmt.Sprintf("%g", b.Seconds)},
		N:              b.N,
		R:              b.R,
		Strategy:       b.Strategy,
		Timeout:        time.Duration(3*b.Seconds)*time.Second + 2*time.Minute,
		FailureDetect:  b.Detect,
		ReserveRetries: 1,
	}
	jobs, _, err := RunJobs(w, spec, b.Jobs, sched.Config{
		Workers:      2,
		Retries:      b.Retries,
		Backoff:      5 * time.Second,
		Seed:         seed,
		IsContention: ChurnRetryable,
	})
	if err != nil {
		return batchOutcome{}, err
	}
	var o batchOutcome
	var sumSecs float64
	procs := float64(b.N * b.R)
	for _, j := range jobs {
		o.Rebooks += j.Attempts - 1
		o.WastedSlotHours += j.Wasted.Hours() * procs
		if j.Result != nil {
			o.HostsLost += j.Result.Failover.HostsLost
		}
		// A nil error with a rank missing (e.g. its host stayed down
		// past the attempt deadline) is still a failed job.
		if j.Err != nil || j.Result.LostRanks() > 0 {
			o.Failed++
			continue
		}
		o.Succeeded++
		sumSecs += j.Latency().Seconds()
		o.Failovers += j.Result.Failover.Failovers
	}
	o.SuccessRate = float64(o.Succeeded) / float64(b.Jobs)
	if o.Succeeded > 0 {
		o.MeanSeconds = sumSecs / float64(o.Succeeded)
		o.Inflation = o.MeanSeconds / b.Seconds
	}
	return o, nil
}

// ChurnPointsCSV renders a churn sweep as CSV, one row per (MTBF, R,
// strategy) point.
func ChurnPointsCSV(pts []ChurnPoint) string {
	var b strings.Builder
	b.WriteString("strategy,mtbf_s,mttr_s,n,r,jobs,hosts,succeeded,failed,success_rate," +
		"mean_s,inflation,failovers,hosts_lost,rebooks,wasted_slot_hours," +
		"failures_injected,down_fraction\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%s,%.0f,%.0f,%d,%d,%d,%d,%d,%d,%.4f,%.3f,%.4f,%d,%d,%d,%.4f,%d,%.4f\n",
			p.Strategy, p.MTBFSeconds, p.MTTRSeconds, p.N, p.R, p.Jobs, p.Hosts,
			p.Succeeded, p.Failed, p.SuccessRate, p.MeanSeconds, p.Inflation,
			p.Failovers, p.HostsLostMidRun, p.Rebooks, p.WastedSlotHours,
			p.FailuresInjected, p.DownFraction)
	}
	return b.String()
}

// RenderChurnPoints prints a churn sweep as a table.
func RenderChurnPoints(title string, pts []ChurnPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%8s %3s %-12s %8s %9s %9s %5s %7s %10s %9s\n",
		"mtbf(s)", "r", "strategy", "success", "mean(s)", "inflate", "fovr", "rebooks", "waste(s·h)", "down%")
	for _, p := range pts {
		fmt.Fprintf(&b, "%8.0f %3d %-12s %6.0f%% %9.1f %8.2fx %5d %7d %10.3f %8.1f%%\n",
			p.MTBFSeconds, p.R, p.Strategy, 100*p.SuccessRate, p.MeanSeconds,
			p.Inflation, p.Failovers, p.Rebooks, p.WastedSlotHours, 100*p.DownFraction)
	}
	return b.String()
}
