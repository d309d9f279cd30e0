package exp

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/faults"
)

// nemesisTestConfig is the tiny-world sweep the determinism and golden
// tests share: a loss-only baseline point and a loss+partition point,
// with the RPC robustness layer armed at its defaults. Gray failures
// and composed churn stay off here — both strike the supernode tier's
// dedicated hosts, which only exist on federated worlds, and the
// golden pins the job-plane CSV across federation widths.
func nemesisTestConfig(t *testing.T) NemesisConfig {
	return NemesisConfig{
		Base:       goldenBase(t),
		Strategy:   core.Spread,
		Losses:     []float64{0, 0.2},
		PartDurs:   []time.Duration{30 * time.Second},
		PartMTBF:   2 * time.Minute,
		N:          6,
		R:          2,
		Jobs:       3,
		JobSeconds: 40,
		Detect:     10 * time.Second,
	}
}

// TestGoldenNemesisTrace: the nemesis family with faults enabled,
// across worker counts 1/4, shard counts 1/4 and federation widths
// 1/4 — eight runs, one committed byte string. The fault trace, every
// retry, every detector write-off and every re-book replay
// identically whatever the execution shape; the job-plane CSV is also
// federation-width-independent because booking runs off the boot-time
// cache and retry jitter is drawn per target (see mpd.retryDelay).
func TestGoldenNemesisTrace(t *testing.T) {
	cfg := nemesisTestConfig(t)
	goldenCompare(t, "golden_nemesis.csv", sameAcross(t, shapes([]int{1, 4}, []int{1, 4}, []int{1, 4}),
		func(s shape) (string, error) {
			pts, err := NemesisSweep(s.opts(42), cfg, s.workers)
			return NemesisPointsCSV(pts), err
		}))
}

// TestNemesisShardRace composes a federation-splitting partition
// schedule, uniform link loss and supernode churn — membership shards
// dying, reviving and re-converging while the network is being cut —
// on a 3-shard world under the race detector, with the
// lookahead-safety check armed. Both renderings (the job-plane CSV
// and the membership-tier CSV, healing latency included) must match
// the single-shard run byte for byte.
func TestNemesisShardRace(t *testing.T) {
	t.Setenv("VTIME_CHECK", "1")
	cfg := nemesisTestConfig(t)
	cfg.Losses = []float64{0.2}
	cfg.PartDurs = []time.Duration{40 * time.Second}
	cfg.MTBF = 90 * time.Second
	cfg.MTTR = 45 * time.Second
	cfg.Jobs = 4
	cfg.Detect = 5 * time.Second
	cfg.BreakerThreshold = 3

	var seqPt *NemesisPoint
	sameAcross(t, shapes([]int{4}, []int{1, 3}, []int{2}), func(s shape) (string, error) {
		pts, err := NemesisSweep(s.opts(99), cfg, s.workers)
		if err != nil {
			return "", err
		}
		if seqPt == nil {
			seqPt = &pts[0]
		}
		return NemesisPointsCSV(pts) + NemesisFederationCSV(pts), nil
	})
	if seqPt.Partitions < 2 {
		t.Fatalf("partition load too light to mean anything: %+v", *seqPt)
	}
	if seqPt.FailuresInjected < 10 {
		t.Fatalf("churn load too light to mean anything: %d failures", seqPt.FailuresInjected)
	}
	if seqPt.RPCRetries == 0 {
		t.Fatalf("robustness layer never retried under 20%% loss: %+v", *seqPt)
	}
}

// TestNemesisZeroSpecIsFreeOfFaultState: a zero fault spec must leave
// the world's network untouched — the faults hook stays nil and the
// nemesis point at loss=0/partdur=0 reports a clean run. This is the
// cheap in-suite proxy for the acceptance bar that fault-free goldens
// stay byte-identical (which the other golden tests enforce directly:
// they never install fault state at all).
func TestNemesisZeroSpecIsFreeOfFaultState(t *testing.T) {
	var zero faults.Config
	if zero.Enabled() {
		t.Fatal("zero faults.Config claims to inject")
	}
	cfg := nemesisTestConfig(t)
	cfg.Losses = []float64{0}
	cfg.PartDurs = []time.Duration{0}
	pts, err := NemesisSweep(DefaultOptions(42), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.Partitions != 0 || p.CutPairs != 0 || p.GrayEpisodes != 0 {
		t.Fatalf("fault-free point reports injections: %+v", p)
	}
	if p.SuccessRate != 1 {
		t.Fatalf("fault-free point lost jobs: %+v", p)
	}
	if p.RPCRetries != 0 || p.Rebooks != 0 {
		t.Fatalf("fault-free point needed recovery work: %+v", p)
	}
	if p.Inflation > 1.5 {
		t.Fatalf("fault-free inflation %.2f", p.Inflation)
	}
}

func TestNemesisPointsCSVShape(t *testing.T) {
	pts := []NemesisPoint{{
		Loss: 0.3, PartDurSeconds: 60, PartMTBFSeconds: 300,
		N: 6, R: 2, Jobs: 4, Hosts: 24, Succeeded: 3, Failed: 1,
		SuccessRate: 0.75, MeanSeconds: 80, Inflation: 1.33,
		Failovers: 2, HostsLost: 3, Rebooks: 2,
		Partitions: 5, PartitionSeconds: 290.5, CutPairs: 10,
		FailuresInjected: 7, SN: 4, RPCRetries: 31, BreakerSkips: 4,
		GrayEpisodes: 2, HealSamples: 4, HealMeanSeconds: 0.75, HealMaxSeconds: 1.25,
	}}
	csv := NemesisPointsCSV(pts)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV:\n%s", csv)
	}
	if got, want := len(strings.Split(lines[1], ",")), len(strings.Split(lines[0], ",")); got != want {
		t.Fatalf("row has %d fields, header %d:\n%s", got, want, csv)
	}
	fed := NemesisFederationCSV(pts)
	flines := strings.Split(strings.TrimSpace(fed), "\n")
	if len(flines) != 2 {
		t.Fatalf("federation CSV:\n%s", fed)
	}
	if got, want := len(strings.Split(flines[1], ",")), len(strings.Split(flines[0], ",")); got != want {
		t.Fatalf("federation row has %d fields, header %d:\n%s", got, want, fed)
	}
	if !strings.Contains(fed, ",4,31,4,") {
		t.Fatalf("federation CSV lost the membership counters:\n%s", fed)
	}
	table := RenderNemesisPoints("nemesis", pts)
	if !strings.Contains(table, "75%") {
		t.Fatalf("table:\n%s", table)
	}
}

// nemesisBenchConfig is the acceptance point: 30% uniform loss plus
// 60-second federation-splitting partitions, unreplicated jobs, and a
// single re-book so the RPC robustness layer — not the scheduler's
// retry budget and not replication — is what recovers launches.
func nemesisBenchConfig(t *testing.T) NemesisConfig {
	return NemesisConfig{
		Base:       goldenBase(t),
		Strategy:   core.Spread,
		Losses:     []float64{0.3},
		PartDurs:   []time.Duration{time.Minute},
		PartMTBF:   90 * time.Second,
		N:          6,
		R:          1,
		Jobs:       10,
		JobSeconds: 60,
		Retries:    1,
		Detect:     10 * time.Second,
	}
}

// TestEmitNemesisBenchJSON writes BENCH_nemesis.json — the
// partition-tolerance trajectory CI keeps per commit — when
// BENCH_NEMESIS_JSON names the output path. It runs the acceptance
// point twice, with the robustness layer armed and disabled, and
// reports the measured recovery margin: retries must recover at least
// the no-retry success rate.
func TestEmitNemesisBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_NEMESIS_JSON")
	if out == "" {
		t.Skip("BENCH_NEMESIS_JSON not set")
	}
	start := time.Now()
	opts := DefaultOptions(42)
	opts.Supernodes = 4 // federated, so the healing latency is measured too

	cfg := nemesisBenchConfig(t)
	withPts, err := NemesisSweep(opts, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	noCfg := cfg
	noCfg.RPCRetries = -1
	noPts, err := NemesisSweep(opts, noCfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	withPt, noPt := withPts[0], noPts[0]
	if withPt.RPCRetries == 0 {
		t.Fatalf("robustness layer never retried at 30%% loss: %+v", withPt)
	}
	if noPt.RPCRetries != 0 {
		t.Fatalf("disabled robustness layer still retried: %+v", noPt)
	}
	margin := withPt.SuccessRate - noPt.SuccessRate
	if margin < 0 {
		t.Fatalf("retries lost ground: with %.2f vs without %.2f", withPt.SuccessRate, noPt.SuccessRate)
	}

	type entry struct {
		Name             string  `json:"name"`
		RPCRetries       int     `json:"rpc_retry_budget"`
		Loss             float64 `json:"loss"`
		PartDurSeconds   float64 `json:"part_s"`
		SuccessRate      float64 `json:"success_rate"`
		Inflation        float64 `json:"inflation"`
		RetryVolume      int64   `json:"retry_volume"`
		Rebooks          int     `json:"rebooks"`
		HostsLost        int     `json:"hosts_lost"`
		Partitions       int     `json:"partitions"`
		PartitionSeconds float64 `json:"partition_s"`
		HealSamples      int     `json:"heal_samples"`
		HealMeanSeconds  float64 `json:"heal_mean_s"`
		HealMaxSeconds   float64 `json:"heal_max_s"`
	}
	mk := func(name string, budget int, p NemesisPoint) entry {
		return entry{
			Name: name, RPCRetries: budget,
			Loss: p.Loss, PartDurSeconds: p.PartDurSeconds,
			SuccessRate: p.SuccessRate, Inflation: p.Inflation,
			RetryVolume: p.RPCRetries, Rebooks: p.Rebooks, HostsLost: p.HostsLost,
			Partitions: p.Partitions, PartitionSeconds: p.PartitionSeconds,
			HealSamples: p.HealSamples, HealMeanSeconds: p.HealMeanSeconds,
			HealMaxSeconds: p.HealMaxSeconds,
		}
	}
	blob, err := json.MarshalIndent(map[string]any{
		"benchmarks": []entry{
			mk("NemesisSweep/loss=0.3/part=60s/retries=on", 2, withPt),
			mk("NemesisSweep/loss=0.3/part=60s/retries=off", 0, noPt),
		},
		"recovery_margin": margin,
		"wall_seconds":    time.Since(start).Seconds(),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (success with/without retries: %.2f/%.2f, margin %.2f)",
		out, withPt.SuccessRate, noPt.SuccessRate, margin)
}
