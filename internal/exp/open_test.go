package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/sched"
	"p2pmpi/internal/stats"
	"p2pmpi/internal/workload"
)

func openGoldenConfig(t *testing.T) OpenConfig {
	t.Helper()
	return OpenConfig{
		Base:       goldenBase(t),
		Strategies: []core.Strategy{core.Concentrate, core.Spread},
		Arrival: workload.ArrivalSpec{
			Kind: workload.ArrivalDiurnal, Peak: 0.05, Trough: 0.01,
			Period: 30 * time.Minute, MaintEvery: 15 * time.Minute, MaintDur: 90 * time.Second,
		},
		Tenants:        3,
		TenantSkew:     1,
		PriorityLevels: 2,
		Duration:       40 * time.Minute,
		// WarmupAuto pins the historical Duration/10 transient cut (an
		// unset Warmup now means "measure from t=0").
		Warmup: WarmupAuto,
		DurMin: 15, DurMax: 120, // short jobs keep the pump cheap
		NMin: 2, NMax: 8,
		Workers: 4,
		// Deadlines are pure measurement — derived from draws the trace
		// already makes — so pinning SLO attainment and tardiness here
		// costs nothing in golden churn.
		DeadlineFactors: []float64{8, 4},
	}
}

// TestGoldenOpenTrace: the open-system family across worker counts,
// shard counts and federation widths — eight runs, one committed byte
// string. The whole pipeline is pinned: the workload trace, the
// priority admission order, the t-digest percentile state, the
// fairness index.
func TestGoldenOpenTrace(t *testing.T) {
	cfg := openGoldenConfig(t)
	goldenCompare(t, "golden_open.csv", sameAcross(t, shapes([]int{1, 4}, []int{1, 4}, []int{1, 4}),
		func(s shape) (string, error) {
			pts, err := OpenSweep(s.opts(42), cfg, s.workers)
			return OpenPointsCSV(pts), err
		}))
}

// TestOpenWarmupSemantics pins the warm-up sentinel contract: only
// WarmupAuto picks the Duration/10 default. An explicit zero used to be
// silently rewritten to Duration/10 — the zero value was
// indistinguishable from "unset" — which made a deliberate
// measure-from-t=0 sweep impossible to request.
func TestOpenWarmupSemantics(t *testing.T) {
	for _, c := range []struct {
		name string
		in   time.Duration
		want time.Duration
	}{
		{"auto picks a tenth", WarmupAuto, 6 * time.Minute},
		{"explicit zero means zero", 0, 0},
		{"other negatives mean zero", -5 * time.Second, 0},
		{"explicit value passes through", 90 * time.Second, 90 * time.Second},
	} {
		cfg := OpenConfig{
			Arrival:  workload.ArrivalSpec{Kind: workload.ArrivalPoisson, Rate: 1},
			Duration: time.Hour,
			Warmup:   c.in,
		}
		if err := cfg.fillDefaults(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cfg.Warmup != c.want {
			t.Errorf("%s: warmup = %v, want %v", c.name, cfg.Warmup, c.want)
		}
	}

	// End to end: a zero-warm-up point measures every submission.
	cfg := openGoldenConfig(t)
	cfg.Strategies = []core.Strategy{core.Spread}
	cfg.Duration = 10 * time.Minute
	cfg.Warmup = 0
	pt, err := RunOpen(DefaultOptions(42), cfg, core.Spread)
	if err != nil {
		t.Fatal(err)
	}
	if pt.WarmupSeconds != 0 {
		t.Errorf("point reports warmup %.0fs, want 0", pt.WarmupSeconds)
	}
	if pt.Measured != pt.Submitted {
		t.Errorf("zero warm-up measured %d of %d submissions", pt.Measured, pt.Submitted)
	}
}

// TestOpenTimeoutFollowsResolvedShape: a DurMax below DurMin is reset
// by the workload to its 1800s default, so both runs replay the same
// trace and the attempt timeout must be sized from that resolved bound.
// Sized from the raw 10s it would be 150s, and 8 of the 98 measured
// jobs would time out.
func TestOpenTimeoutFollowsResolvedShape(t *testing.T) {
	for _, durMax := range []float64{10, 1800} {
		cfg := OpenConfig{
			Base:     goldenBase(t),
			Arrival:  workload.ArrivalSpec{Kind: workload.ArrivalPoisson, Rate: 0.01},
			Duration: 3 * time.Hour,
			Warmup:   WarmupAuto,
			DurMin:   20,
			DurMax:   durMax,
		}
		pt, err := RunOpen(DefaultOptions(42), cfg, core.Spread)
		if err != nil {
			t.Fatalf("durmax=%g: %v", durMax, err)
		}
		if pt.Measured != 98 || pt.Failed != 0 {
			t.Errorf("durmax=%g: %d of %d measured jobs failed, want 0 of 98", durMax, pt.Failed, pt.Measured)
		}
	}
}

// TestOpenSketchVsExact holds the streaming path to the acceptance
// bound: queue-wait P50/P90/P99 from the t-digest must sit within 1%
// relative error of the exact order statistics of the same run
// (absolute floor 50ms for near-zero quantiles).
func TestOpenSketchVsExact(t *testing.T) {
	cfg := openGoldenConfig(t)
	cfg.Strategies = []core.Strategy{core.Spread}
	cfg.Duration = 2 * time.Hour
	var exact []float64
	cfg.observe = func(j *sched.Job, sub workload.Submission) {
		if j.Err != nil || j.Result == nil || j.Result.LostRanks() > 0 {
			return
		}
		exact = append(exact, math.Max(0, j.Latency().Seconds()-sub.Seconds))
	}
	pt, err := RunOpen(DefaultOptions(42), cfg, core.Spread)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Completed < 100 {
		t.Fatalf("run too small to compare quantiles: %d completed jobs", pt.Completed)
	}
	if len(exact) != pt.Completed {
		t.Fatalf("observe hook saw %d completions, point says %d", len(exact), pt.Completed)
	}
	sum := stats.Summarize(exact)
	for _, c := range []struct {
		name         string
		sketch, want float64
	}{
		{"wait_p50", pt.WaitP50Seconds, sum.P50},
		{"wait_p90", pt.WaitP90Seconds, sum.P90},
		{"wait_p99", pt.WaitP99Seconds, sum.P99},
	} {
		tol := math.Max(0.01*math.Abs(c.want), 0.05)
		if diff := math.Abs(c.sketch - c.want); diff > tol {
			t.Errorf("%s: sketch %.4f vs exact %.4f (|diff| %.4f > tol %.4f)",
				c.name, c.sketch, c.want, diff, tol)
		}
	}
	if diff := math.Abs(pt.MeanWaitSeconds - sum.Mean); diff > 1e-9*math.Max(1, sum.Mean) {
		t.Errorf("mean wait: stream %.6f vs exact %.6f", pt.MeanWaitSeconds, sum.Mean)
	}
}

// TestOpenChurnShardRace composes the open arrival process with host
// churn — compute hosts and federated supernode hosts dying and
// reviving mid-steady-state — on a 3-shard world under the race
// detector, with the lookahead-safety check armed. Per-job outcomes
// and the rendered point must match the single-shard run byte for
// byte.
func TestOpenChurnShardRace(t *testing.T) {
	t.Setenv("VTIME_CHECK", "1")
	cfg := openGoldenConfig(t)
	cfg.Strategies = []core.Strategy{core.Spread}
	cfg.Arrival = workload.ArrivalSpec{Kind: workload.ArrivalPoisson, Rate: 0.02}
	cfg.Duration = 40 * time.Minute
	cfg.R = 2
	cfg.Workers = 2
	cfg.MTBF = 90 * time.Second
	cfg.MTTR = 45 * time.Second
	cfg.Detect = 5 * time.Second

	sameAcross(t, shapes([]int{4}, []int{1, 3}, []int{1}), func(s shape) (string, error) {
		pt, jobs, err := runOpenJobs(s.opts(99), cfg)
		if err == nil && pt.FailuresInjected < 10 {
			err = fmt.Errorf("churn load too light to mean anything: %d failures", pt.FailuresInjected)
		}
		return jobs, err
	})
}

// runOpenJobs runs one open point and renders it together with every
// measured job's outcome, in trace order.
func runOpenJobs(opts Options, cfg OpenConfig) (OpenPoint, string, error) {
	var b strings.Builder
	cfg.observe = func(j *sched.Job, sub workload.Submission) {
		fmt.Fprintf(&b, "%d|%d|%d|%s\n", sub.Seq, sub.Tenant, sub.Priority, jobLine(j))
	}
	pt, err := RunOpen(opts, cfg, cfg.Strategies[0])
	return pt, OpenPointsCSV([]OpenPoint{pt}) + b.String(), err
}

// TestGoldenOpenSLO pins the SLO-aware multi-tenant tier end to end:
// token-bucket quotas throttling the heavy tenant at admission, the
// preemption primitive checkpoint-killing over-budget running work to
// make room for in-budget jobs, and deadline attainment/tardiness
// folding through the t-digests. One committed byte string across
// worker counts and shard counts — four runs — so quota accrual, victim
// choice and the kill/release path are all deterministic under
// parallel execution.
func TestGoldenOpenSLO(t *testing.T) {
	cfg := openGoldenConfig(t)
	cfg.Arrival = workload.ArrivalSpec{
		Kind: workload.ArrivalWeekly, Peak: 0.1, Trough: 0.025,
		Period: 70 * time.Minute,
	}
	cfg.Duration = 50 * time.Minute
	cfg.NMin, cfg.NMax = 4, 16
	cfg.DurMin, cfg.DurMax = 30, 240
	cfg.Workers = 8 // enough in-flight admission to saturate the 48 procs
	// Inverted skew: premium low-volume tenants hold the high priority
	// class while the bulk batch tenant (tenant 2, lowest priority)
	// carries half the arrival rate — the configuration where quota
	// enforcement and preemption actually bite, since the over-budget
	// tenant's running jobs are outranked by in-budget submitters.
	cfg.TenantSkew = -1
	cfg.QuotaRate = 8
	// A small burst (about one mid-size job) makes budget state move on
	// the test's 50-minute horizon; the default hour of accrual would
	// keep every bucket positive for the whole run.
	cfg.QuotaBurst = 300
	cfg.Preempt = true
	cfg.DeadlineFactors = []float64{6, 3}

	var firstPts []OpenPoint
	first := sameAcross(t, shapes([]int{4}, []int{1, 4}, []int{1, 4}), func(s shape) (string, error) {
		pts, err := OpenSweep(s.opts(7), cfg, s.workers)
		if firstPts == nil {
			firstPts = pts
		}
		return OpenPointsCSV(pts), err
	})
	// The golden is only worth committing if it actually exercises the
	// tier: quotas must throttle, preemption must fire, and deadlines
	// must split into met and missed.
	var preempted int
	var throttled, slo bool
	for _, p := range firstPts {
		preempted += p.Preemptions
		throttled = throttled || p.QuotaThrottleRate > 0
		slo = slo || (p.SLOAttainment > 0 && p.SLOAttainment < 1)
	}
	if preempted == 0 {
		t.Error("no preemptions fired — the golden does not cover the kill path")
	}
	if !throttled {
		t.Error("quota never throttled — the golden does not cover two-class admission")
	}
	if !slo {
		t.Error("SLO attainment degenerate — the golden does not cover deadline metrics")
	}
	goldenCompare(t, "golden_slo.csv", first)
}

// TestOpenPreemptChurnShardRace composes preemption and quotas with
// host churn on a sharded world under the race detector: kills racing
// crashes, revivals and the failure detector. Per-job outcomes and the
// rendered point must match the single-shard run byte for byte — which
// also pins reservation release as exactly-once, since a double or
// dropped release would skew capacity and diverge (or stall) one of the
// runs. RunOpen itself enforces submitted == completed.
func TestOpenPreemptChurnShardRace(t *testing.T) {
	t.Setenv("VTIME_CHECK", "1")
	cfg := openGoldenConfig(t)
	cfg.Strategies = []core.Strategy{core.Spread}
	cfg.Arrival = workload.ArrivalSpec{Kind: workload.ArrivalPoisson, Rate: 0.05}
	cfg.Duration = 40 * time.Minute
	cfg.NMin, cfg.NMax = 4, 12
	cfg.DurMin, cfg.DurMax = 30, 240
	cfg.Workers = 8
	// Same inverted-skew shape as TestGoldenOpenSLO: the bulk tenant
	// overdraws its small burst while premium tenants stay in budget
	// and preempt it.
	cfg.TenantSkew = -1
	cfg.QuotaRate = 5
	cfg.QuotaBurst = 300
	cfg.Preempt = true
	// Mild churn: heavy churn makes jobs fail on missing peers before
	// the ledger ever saturates, and preemption only triggers on
	// saturation. ~10% of hosts down keeps the world tight but placeable.
	cfg.MTBF = 20 * time.Minute
	cfg.MTTR = 2 * time.Minute
	cfg.Detect = 5 * time.Second

	var seqPt *OpenPoint
	sameAcross(t, shapes([]int{4}, []int{1, 4}, []int{1}), func(s shape) (string, error) {
		pt, jobs, err := runOpenJobs(s.opts(99), cfg)
		if seqPt == nil {
			seqPt = &pt
		}
		return jobs, err
	})
	if seqPt.Preemptions < 1 {
		t.Fatalf("no preemptions under churn: the composition is untested")
	}
	if seqPt.FailuresInjected < 5 {
		t.Fatalf("churn too light to mean anything: %d failures", seqPt.FailuresInjected)
	}
}

// weekReplayConfig assembles a Grid'5000-grounded week: the weekly
// arrival curve (weekday plateau, weekend trough) over a 168h horizon,
// small heavy-tailed jobs on a 128-host world, deadlines on every
// priority class.
func weekReplayConfig(t *testing.T, peak float64, maxSubs int) (Options, OpenConfig) {
	t.Helper()
	spec, err := grid.ParseTopologySpec("synth:S=4,H=32")
	if err != nil {
		t.Fatal(err)
	}
	cfg := OpenConfig{
		Base:       spec,
		Strategies: []core.Strategy{core.Spread},
		Arrival: workload.ArrivalSpec{
			Kind: workload.ArrivalWeekly, Peak: peak, Trough: peak / 5,
		},
		Tenants:        8,
		TenantSkew:     1,
		PriorityLevels: 2,
		Duration:       168 * time.Hour,
		Warmup:         WarmupAuto,
		NMin:           1, NMax: 4,
		DurMin: 10, DurMax: 60,
		MaxSubmissions:  maxSubs,
		Workers:         64,
		DeadlineFactors: []float64{12, 6},
	}
	// Default options on purpose: a day-plus horizon must trip RunOpen's
	// long-horizon liveness diet, or this test burns its wall clock on
	// 20-second probe rounds — the exact regression the diet guards.
	return DefaultOptions(42), cfg
}

// TestOpenWeekReplaySmoke walks the whole 168-hour weekly arrival curve
// through the streaming replay path — lazy generation, bounded pending
// state, incremental fold — end to end. The full-scale 10M-submission
// run lives behind BENCH_OPEN_REPLAY_SUBS and the CI smoke; this keeps
// the path exercised on every `go test`.
func TestOpenWeekReplaySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("week-long replay")
	}
	opts, cfg := weekReplayConfig(t, 0.01, 2000)
	pt, err := RunOpen(opts, cfg, core.Spread)
	if err != nil {
		t.Fatal(err)
	}
	if pt.HorizonSeconds != 604800 {
		t.Errorf("horizon %.0fs, want a full week", pt.HorizonSeconds)
	}
	if pt.Submitted < 1000 {
		t.Errorf("only %d submissions over a week — arrival curve broken?", pt.Submitted)
	}
	if pt.Measured == 0 || pt.Completed+pt.Failed != pt.Measured {
		t.Errorf("measured %d != completed %d + failed %d", pt.Measured, pt.Completed, pt.Failed)
	}
	if pt.SLOAttainment <= 0 {
		t.Errorf("slo attainment %.4f — deadlines never folded", pt.SLOAttainment)
	}
}

// TestOpenAccumFootprint1M drives a million synthetic completions
// through the open family's accumulation path and holds its retained
// memory O(1): the t-digest streams keep centroids, not samples, and
// the fairness state is O(tenants). This is the layer that lets a
// 10M-submission steady-state sweep run in constant memory.
func TestOpenAccumFootprint1M(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	feed := func(n int) *openAccum {
		acc := newOpenAccum(16)
		u := uint64(1)
		for i := 0; i < n; i++ {
			u = u*6364136223846793005 + 1442695040888963407
			wait := float64(u%100_000) / 1000
			service := 20 + float64(u%1800)
			acc.observe(int(u%16), 2+int(u%30), wait,
				boundedSlowdown(wait+service, service), service, u%97 == 0)
		}
		return acc
	}
	feed(10_000) // warm allocator pools

	before := heap()
	acc := feed(1_000_000)
	after := heap()

	if acc.measured != 1_000_000 {
		t.Fatalf("accumulated %d observations", acc.measured)
	}
	const budget = 1 << 20 // 1 MiB for two digests + per-tenant moments
	if grew := int64(after) - int64(before); grew > budget {
		t.Errorf("1M-submission accumulation grew the heap by %d bytes (budget %d)", grew, budget)
	}
	if rb := acc.wait.Digest().RetainedBytes() + acc.slow.Digest().RetainedBytes(); rb > budget {
		t.Errorf("digests retain %d bytes (budget %d)", rb, budget)
	}
	runtime.KeepAlive(acc)
}

// TestEmitOpenBenchJSON writes BENCH_open.json — the open-system
// steady-state trajectory CI keeps per commit — when BENCH_OPEN_JSON
// names the output path. The tracked quantities are utilization and
// the tail percentiles: a scheduler or sketch regression shows up as
// the steady state moving, not as ns/op.
func TestEmitOpenBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_OPEN_JSON")
	if out == "" {
		t.Skip("BENCH_OPEN_JSON not set")
	}
	start := time.Now()
	pts, err := OpenSweep(DefaultOptions(42), openGoldenConfig(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name           string  `json:"name"`
		Strategy       string  `json:"strategy"`
		Arrival        string  `json:"arrival"`
		Measured       int     `json:"measured"`
		Completed      int     `json:"completed"`
		Failed         int     `json:"failed"`
		Utilization    float64 `json:"utilization"`
		WaitP50Seconds float64 `json:"wait_p50_s"`
		WaitP90Seconds float64 `json:"wait_p90_s"`
		WaitP99Seconds float64 `json:"wait_p99_s"`
		SlowdownP99    float64 `json:"slowdown_p99"`
		JainFairness   float64 `json:"jain"`
		SLOAttainment  float64 `json:"slo_attainment"`
		TardinessP99   float64 `json:"tardiness_p99_s"`
	}
	var entries []entry
	for _, p := range pts {
		entries = append(entries, entry{
			Name:           fmt.Sprintf("OpenSweep/%s/tenants=%d", p.Strategy, p.Tenants),
			Strategy:       p.Strategy.String(),
			Arrival:        p.Arrival,
			Measured:       p.Measured,
			Completed:      p.Completed,
			Failed:         p.Failed,
			Utilization:    p.Utilization,
			WaitP50Seconds: p.WaitP50Seconds,
			WaitP90Seconds: p.WaitP90Seconds,
			WaitP99Seconds: p.WaitP99Seconds,
			SlowdownP99:    p.SlowdownP99,
			JainFairness:   p.JainFairness,
			SLOAttainment:  p.SLOAttainment,
			TardinessP99:   p.TardinessP99Seconds,
		})
	}
	payload := map[string]any{
		"benchmarks":   entries,
		"wall_seconds": time.Since(start).Seconds(),
	}
	// BENCH_OPEN_REPLAY_SUBS additionally records the long-horizon
	// replay trajectory: a week of weekly arrivals capped at that many
	// submissions, with wall clock and the process's peak RSS, so a
	// memory regression in the streaming path shows up as the replay
	// footprint moving commit over commit.
	if subs := os.Getenv("BENCH_OPEN_REPLAY_SUBS"); subs != "" {
		n, perr := strconv.Atoi(subs)
		if perr != nil || n <= 0 {
			t.Fatalf("BENCH_OPEN_REPLAY_SUBS=%q: %v", subs, perr)
		}
		peak := float64(n) / 300_000 // ≈ n submissions over the week
		if peak < 0.01 {
			peak = 0.01
		}
		ropts, rcfg := weekReplayConfig(t, peak, n)
		rstart := time.Now()
		rpt, rerr := RunOpen(ropts, rcfg, core.Spread)
		if rerr != nil {
			t.Fatal(rerr)
		}
		payload["week_replay"] = map[string]any{
			"max_submissions": n,
			"submitted":       rpt.Submitted,
			"completed":       rpt.Completed,
			"failed":          rpt.Failed,
			"slo_attainment":  rpt.SLOAttainment,
			"wall_seconds":    time.Since(rstart).Seconds(),
			"peak_rss_bytes":  PeakRSSBytes(),
		}
	}
	blob, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d entries)", out, len(entries))
}
