package exp

import (
	"fmt"
	"strings"
	"time"

	"p2pmpi/internal/churn"
	"p2pmpi/internal/core"
	"p2pmpi/internal/faults"
	"p2pmpi/internal/grid"
)

// The nemesis experiment family measures partition tolerance — the
// failure modes the churn family's clean crash-stop model never
// exercises. Each point boots a fresh world, arms a seeded network
// nemesis (site-pair partitions including federation-splitting cuts,
// uniform link loss, gray hosts, frame duplication — internal/faults),
// and pushes a batch of fixed-duration jobs through the multi-job
// scheduler with the RPC robustness layer configured per the sweep.
// What comes out, per (loss, partition duration): the job success
// rate, the completion-time inflation over the failure-free baseline,
// the retry volume the robustness layer spent, and — on federated
// worlds — the split-brain window and anti-entropy healing latency.

// NemesisPoint is one (loss, partition duration) measurement.
type NemesisPoint struct {
	// Loss and PartDurSeconds are the swept coordinates; PartMTBFSeconds
	// echoes the fixed spell cadence (0 when partitions are off at this
	// point).
	Loss            float64
	PartDurSeconds  float64
	PartMTBFSeconds float64
	// N, R and Jobs echo the submitted batch; Hosts is the booted world
	// size.
	N, R, Jobs int
	Hosts      int
	// Succeeded and Failed partition the batch by outcome (the
	// replication-level criterion: every rank delivered through at least
	// one replica).
	Succeeded, Failed int
	SuccessRate       float64
	// MeanSeconds averages the enqueue-to-finish virtual time of
	// succeeded jobs; Inflation divides it by the failure-free job
	// duration.
	MeanSeconds float64
	Inflation   float64
	// Failovers counts ranks rescued by a backup replica over succeeded
	// jobs; HostsLost counts hosts the detectors wrote off over all
	// final attempts; Rebooks counts extra submission attempts beyond
	// the first.
	Failovers int
	HostsLost int
	Rebooks   int
	// Partitions, PartitionSeconds and CutPairs echo what the fault
	// driver actually injected: partition spells, total time with at
	// least one active cut, and deduplicated per-link cut onsets.
	Partitions       int
	PartitionSeconds float64
	CutPairs         int
	// FailuresInjected counts host crashes when a churn model is
	// composed onto the point (NemesisConfig.MTBF > 0).
	FailuresInjected int

	// The membership-tier measurements below depend on the federation
	// width and are reported by NemesisFederationCSV, not the pinned
	// NemesisPointsCSV (same split as the scale family's two CSVs).

	// SN is the federation width of the measured world. RPCRetries and
	// BreakerSkips sum the robustness layer's counters over the frontal
	// and every compute peer; GrayEpisodes counts injected gray-host
	// onsets (gray can strike the supernode tier's dedicated hosts).
	SN           int
	RPCRetries   int64
	BreakerSkips int64
	GrayEpisodes int
	// HealSamples counts partition spells whose post-heal federation
	// convergence was observed; HealMeanSeconds and HealMaxSeconds
	// measure the lag from the last cut lifting to every member holding
	// element-wise equal version vectors (0 on unfederated worlds).
	HealSamples     int
	HealMeanSeconds float64
	HealMaxSeconds  float64
}

// NemesisConfig tunes a nemesis sweep.
type NemesisConfig struct {
	// Base is the topology template (synthetic or grid5000).
	Base grid.TopologySpec
	// Strategy is the placement policy (default: the first registered
	// strategy). The sweep holds it fixed — the axes are fault knobs,
	// not policies.
	Strategy core.Strategy
	// Losses is the uniform cross-site drop-probability axis.
	Losses []float64
	// PartDurs is the mean-partition-duration axis; a 0 entry disables
	// partitions at that point (the loss-only baseline).
	PartDurs []time.Duration
	// PartMTBF is the mean healthy time between partition spells
	// (default 5m).
	PartMTBF time.Duration
	// NoSplit injects single random site-pair cuts instead of the
	// default federation-splitting bisections.
	NoSplit bool
	// LatMult multiplies every cross-site latency (default 1); Dup
	// duplicates delivered frames with this probability, the copy
	// arriving up to DupDelay later.
	LatMult  float64
	Dup      float64
	DupDelay time.Duration
	// GrayFrac/GrayMTBF/GrayMTTR/GrayDrop/GraySlow configure gray-host
	// episodes (0 disables; see faults.Config).
	GrayFrac           float64
	GrayMTBF, GrayMTTR time.Duration
	GrayDrop, GraySlow float64
	// MTBF composes host churn onto every point (0 disables); MTTR is
	// its repair time (default 60s when MTBF > 0).
	MTBF, MTTR time.Duration
	// N is the rank count per job (default 6); R the replication degree
	// (default 2); Jobs the batch size per point (default 4).
	N, R, Jobs int
	// JobSeconds is the spin duration of each job — the failure-free
	// completion baseline (default 60).
	JobSeconds float64
	// Retries is the per-job re-book budget (default 4); Detect the
	// failure-detector probe period (default 10s).
	Retries int
	Detect  time.Duration
	// RPCRetries is the robustness layer's re-attempt budget (default
	// 2; -1 disables retries entirely — the no-robustness baseline the
	// bench artifact compares against). BreakerThreshold arms the
	// per-supernode circuit breaker (0 = off).
	RPCRetries       int
	BreakerThreshold int
}

func (c *NemesisConfig) fillDefaults() error {
	if c.Strategy == "" {
		c.Strategy = core.Strategies()[0]
	}
	if len(c.Losses) == 0 {
		c.Losses = []float64{0, 0.1, 0.3}
	}
	for _, l := range c.Losses {
		if l < 0 || l >= 1 {
			return fmt.Errorf("exp: bad loss %g (want [0, 1))", l)
		}
	}
	if len(c.PartDurs) == 0 {
		c.PartDurs = []time.Duration{0, time.Minute}
	}
	for _, d := range c.PartDurs {
		if d < 0 {
			return fmt.Errorf("exp: bad partition duration %v", d)
		}
	}
	if c.PartMTBF <= 0 {
		c.PartMTBF = 5 * time.Minute
	}
	if c.MTBF > 0 && c.MTTR <= 0 {
		c.MTTR = time.Minute
	}
	if c.N <= 0 {
		c.N = 6
	}
	if c.R <= 0 {
		c.R = 2
	}
	if c.Jobs <= 0 {
		c.Jobs = 4
	}
	if c.JobSeconds <= 0 {
		c.JobSeconds = 60
	}
	if c.Retries <= 0 {
		c.Retries = 4
	}
	if c.Detect <= 0 {
		c.Detect = 10 * time.Second
	}
	if c.RPCRetries == 0 {
		c.RPCRetries = 2
	}
	return nil
}

// NemesisSweep measures every (loss, partition duration) point. Each
// point owns an independent, freshly booted world with its own
// injection trace, so points run across a bounded pool with
// byte-identical results to a sequential run. Results are ordered
// (loss, partition duration).
func NemesisSweep(opts Options, cfg NemesisConfig, workers int) ([]NemesisPoint, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	var coords []nemesisCoord
	for _, loss := range cfg.Losses {
		for _, pd := range cfg.PartDurs {
			coords = append(coords, nemesisCoord{loss, pd})
		}
	}
	return sweep(coords, workers, func(c nemesisCoord) ([]NemesisPoint, error) {
		pt, err := nemesisAt(opts, cfg, c.loss, c.partDur)
		return []NemesisPoint{pt}, err
	})
}

type nemesisCoord struct {
	loss    float64
	partDur time.Duration
}

func (c nemesisCoord) String() string { return fmt.Sprintf("loss=%g partdur=%v", c.loss, c.partDur) }

// nemesisAt boots one world, arms the nemesis, and runs the batch.
func nemesisAt(opts Options, cfg NemesisConfig, loss float64, partDur time.Duration) (NemesisPoint, error) {
	o := opts
	o.Topology = cfg.Base
	if rr := cfg.RPCRetries; rr > 0 {
		o.RPCRetries = rr
	}
	o.BreakerThreshold = cfg.BreakerThreshold
	if cfg.Base.TotalHosts() > 1000 {
		o.boundMembership(cfg.N * cfg.R)
	}
	w := NewWorld(o)
	defer w.Close()
	if err := w.Boot(); err != nil {
		return NemesisPoint{}, err
	}

	batch := spinBatch{
		Strategy: cfg.Strategy,
		N:        cfg.N, R: cfg.R, Jobs: cfg.Jobs,
		Seconds: cfg.JobSeconds,
		Detect:  cfg.Detect,
		Retries: cfg.Retries,
	}
	fc := faults.Config{
		// A pure function of the (loss, partition duration) coordinates.
		Seed:     subSeed(opts.Seed, "nemesis|%g|%d", loss, partDur),
		Loss:     loss,
		LatMult:  cfg.LatMult,
		DupProb:  cfg.Dup,
		DupDelay: cfg.DupDelay,
		GrayFrac: cfg.GrayFrac,
		GrayMTBF: cfg.GrayMTBF, GrayMTTR: cfg.GrayMTTR,
		GrayDrop: cfg.GrayDrop, GraySlow: cfg.GraySlow,
		Horizon: batch.horizon(),
	}
	if partDur > 0 {
		fc.PartMTBF = cfg.PartMTBF
		fc.PartMTTR = partDur
		fc.Split = !cfg.NoSplit
	}
	if err := fc.Validate(); err != nil {
		return NemesisPoint{}, err
	}
	driver, hw := w.StartFaults(fc)
	var churnDriver *churn.Driver
	if cfg.MTBF > 0 {
		churnDriver = w.StartChurn(churn.Config{
			Seed:    subSeed(opts.Seed, "churn|%d|%d", cfg.MTBF, cfg.R),
			MTBF:    cfg.MTBF,
			MTTR:    cfg.MTTR,
			Horizon: batch.horizon(),
		})
	}
	b, err := batch.run(w, opts.Seed)
	injected := driver.Stop()
	heal := hw.Stats()
	var crashes churn.Stats
	if churnDriver != nil {
		crashes = churnDriver.Stop()
	}
	if err != nil {
		return NemesisPoint{}, err
	}

	pt := NemesisPoint{
		Loss:           loss,
		PartDurSeconds: partDur.Seconds(),
		N:              cfg.N, R: cfg.R, Jobs: cfg.Jobs,
		Hosts:     w.Grid.TotalHosts(),
		Succeeded: b.Succeeded, Failed: b.Failed, SuccessRate: b.SuccessRate,
		MeanSeconds: b.MeanSeconds, Inflation: b.Inflation,
		Failovers: b.Failovers, HostsLost: b.HostsLost, Rebooks: b.Rebooks,
		Partitions:       injected.Partitions,
		PartitionSeconds: injected.PartitionTime.Seconds(),
		CutPairs:         injected.CutPairs,
		GrayEpisodes:     injected.GrayEpisodes,
		FailuresInjected: crashes.Failures,
		SN:               len(w.SNs),
		HealSamples:      heal.HealSamples,
		HealMaxSeconds:   heal.HealMax.Seconds(),
	}
	if partDur > 0 {
		pt.PartMTBFSeconds = cfg.PartMTBF.Seconds()
	}
	if heal.HealSamples > 0 {
		pt.HealMeanSeconds = heal.HealTime.Seconds() / float64(heal.HealSamples)
	}
	st := w.Frontal.Stats()
	pt.RPCRetries, pt.BreakerSkips = st.RPCRetries, st.BreakerSkips
	for _, p := range w.Peers {
		ps := p.Stats()
		pt.RPCRetries += ps.RPCRetries
		pt.BreakerSkips += ps.BreakerSkips
	}
	return pt, nil
}

// NemesisPointsCSV renders the job-plane measurements, one row per
// (loss, partition duration) point. Every column is independent of the
// federation width, like ScalePointsCSV: the golden regression pins
// this rendering byte-for-byte across -workers, -shards AND -sn. The
// width-dependent membership-tier columns (retry volume, breaker
// skips, gray episodes on supernode hosts, healing latency) live in
// NemesisFederationCSV.
func NemesisPointsCSV(pts []NemesisPoint) string {
	var b strings.Builder
	b.WriteString("loss,part_s,part_mtbf_s,n,r,jobs,hosts,succeeded,failed,success_rate," +
		"mean_s,inflation,failovers,hosts_lost,rebooks,partitions,partition_s,cut_pairs," +
		"failures_injected\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%g,%.0f,%.0f,%d,%d,%d,%d,%d,%d,%.4f,%.3f,%.4f,%d,%d,%d,%d,%.3f,%d,%d\n",
			p.Loss, p.PartDurSeconds, p.PartMTBFSeconds, p.N, p.R, p.Jobs, p.Hosts,
			p.Succeeded, p.Failed, p.SuccessRate, p.MeanSeconds, p.Inflation,
			p.Failovers, p.HostsLost, p.Rebooks, p.Partitions, p.PartitionSeconds,
			p.CutPairs, p.FailuresInjected)
	}
	return b.String()
}

// NemesisFederationCSV renders the membership-tier measurements —
// retry volume, breaker skips, gray episodes and the split-brain /
// healing stats. These depend on the federation width (a wider tier
// has more cross-site membership traffic to retry and its own hosts
// can go gray), so this CSV is pinned per fixed deployment shape
// (sequential vs sharded), not across -sn.
func NemesisFederationCSV(pts []NemesisPoint) string {
	var b strings.Builder
	b.WriteString("loss,part_s,sn,rpc_retries,breaker_skips,gray_episodes," +
		"splits,split_s,heal_samples,heal_mean_s,heal_max_s\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%g,%.0f,%d,%d,%d,%d,%d,%.3f,%d,%.4f,%.4f\n",
			p.Loss, p.PartDurSeconds, p.SN, p.RPCRetries, p.BreakerSkips,
			p.GrayEpisodes, p.Partitions, p.PartitionSeconds,
			p.HealSamples, p.HealMeanSeconds, p.HealMaxSeconds)
	}
	return b.String()
}

// RenderNemesisPoints prints a nemesis sweep as a table.
func RenderNemesisPoints(title string, pts []NemesisPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%6s %8s %8s %9s %9s %7s %7s %8s %7s %9s\n",
		"loss", "part(s)", "success", "mean(s)", "inflate", "rebook", "lost", "retries", "splits", "heal(s)")
	for _, p := range pts {
		fmt.Fprintf(&b, "%6g %8.0f %6.0f%% %9.1f %8.2fx %7d %7d %8d %7d %9.2f\n",
			p.Loss, p.PartDurSeconds, 100*p.SuccessRate, p.MeanSeconds, p.Inflation,
			p.Rebooks, p.HostsLost, p.RPCRetries, p.Partitions, p.HealMeanSeconds)
	}
	return b.String()
}
