package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
)

// churnTestConfig is the shared tiny-world sweep used by the
// determinism and survivability tests: 72 hosts, short jobs, an MTBF
// low enough that failures reliably strike mid-run, and a retry budget
// tight enough that re-booking cannot always save an unreplicated job
// (with generous retries the scheduler masks R=1 losses, and the
// replication contrast the tests pin would vanish).
func churnTestConfig() ChurnConfig {
	return ChurnConfig{
		Base:       grid.TopologySpec{Kind: "synth", Sites: 3, HostsPerSite: 24, CoresPerHost: 2, Seed: 5},
		Strategies: []core.Strategy{core.Spread},
		MTBFs:      []time.Duration{240 * time.Second},
		Rs:         []int{1, 2},
		N:          8,
		Jobs:       4,
		JobSeconds: 60,
		Retries:    1,
	}
}

// TestChurnSweepDeterministicAcrossWorkers is the replay property the
// issue pins: a seeded churn trace — failures, failovers, and the
// resulting CSV — must be byte-identical whatever the pool width.
func TestChurnSweepDeterministicAcrossWorkers(t *testing.T) {
	// Workers 2 last: a full re-run replays the same timeline too.
	cfg := churnTestConfig()
	sameAcross(t, shapes([]int{1}, []int{1}, []int{1, 4, 2}), func(s shape) (string, error) {
		pts, err := ChurnSweep(s.opts(42), cfg, s.workers)
		return ChurnPointsCSV(pts), err
	})
}

// TestChurnReplicationImprovesSurvival is the acceptance property:
// under aggressive churn, R=1 jobs must die (success < 100%) and R=2
// must measurably beat R=1 — replica failover actually engaging.
func TestChurnReplicationImprovesSurvival(t *testing.T) {
	pts, err := ChurnSweep(DefaultOptions(42), churnTestConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2 (R=1, R=2)", len(pts))
	}
	r1, r2 := pts[0], pts[1]
	if r1.R != 1 || r2.R != 2 {
		t.Fatalf("point order %+v", pts)
	}
	if r1.FailuresInjected == 0 || r2.FailuresInjected == 0 {
		t.Fatalf("no churn injected: %+v", pts)
	}
	if r1.SuccessRate >= 1.0 {
		t.Fatalf("R=1 success rate %.2f under mtbf=%gs churn — failures never bit",
			r1.SuccessRate, r1.MTBFSeconds)
	}
	if r2.SuccessRate <= r1.SuccessRate {
		t.Fatalf("replication did not help: R=1 %.2f vs R=2 %.2f",
			r1.SuccessRate, r2.SuccessRate)
	}
	if r2.Failovers == 0 {
		t.Fatalf("R=2 succeeded without a single failover — replication was never exercised: %+v", r2)
	}
	// R=1 cannot fail over (there is no backup); its failures surface
	// as re-booked attempts and wasted slot-hours instead.
	if r1.Failovers != 0 {
		t.Fatalf("R=1 reported %d failovers", r1.Failovers)
	}
	if r1.Rebooks == 0 || r1.WastedSlotHours == 0 {
		t.Fatalf("R=1 failures produced no re-book accounting: %+v", r1)
	}
}

func TestChurnSweepNeedsMTBF(t *testing.T) {
	_, err := ChurnSweep(DefaultOptions(1), ChurnConfig{Base: smallSynthSpec()}, 1)
	if err == nil || !strings.Contains(err.Error(), "MTBF") {
		t.Fatalf("missing MTBF axis not rejected: %v", err)
	}
}

func TestChurnPointsCSVShape(t *testing.T) {
	pts := []ChurnPoint{{
		Strategy: core.Spread, MTBFSeconds: 600, MTTRSeconds: 60,
		N: 8, R: 2, Jobs: 4, Hosts: 72, Succeeded: 3, Failed: 1,
		SuccessRate: 0.75, MeanSeconds: 80, Inflation: 1.33,
		Failovers: 2, HostsLostMidRun: 3, Rebooks: 2, WastedSlotHours: 0.5,
		FailuresInjected: 11, DownFraction: 0.09,
	}}
	csv := ChurnPointsCSV(pts)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV:\n%s", csv)
	}
	if !strings.HasPrefix(lines[0], "strategy,mtbf_s,mttr_s,") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "spread,600,60,8,2,4,72,3,1,0.7500,") {
		t.Fatalf("row %q", lines[1])
	}
}

// TestEmitChurnBenchJSON writes BENCH_churn.json — the survivability
// trajectory CI keeps per commit — when BENCH_CHURN_JSON names the
// output path. The tracked quantities are the experiment's outputs
// (success rate, failovers, waste) rather than ns/op: a regression in
// the failover path shows up as survival numbers moving, not as a
// microbenchmark.
func TestEmitChurnBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_CHURN_JSON")
	if out == "" {
		t.Skip("BENCH_CHURN_JSON not set")
	}
	start := time.Now()
	pts, err := ChurnSweep(DefaultOptions(42), churnTestConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name             string  `json:"name"`
		Strategy         string  `json:"strategy"`
		MTBFSeconds      float64 `json:"mtbf_s"`
		R                int     `json:"r"`
		SuccessRate      float64 `json:"success_rate"`
		Inflation        float64 `json:"inflation"`
		Failovers        int     `json:"failovers"`
		Rebooks          int     `json:"rebooks"`
		WastedSlotHours  float64 `json:"wasted_slot_hours"`
		FailuresInjected int     `json:"failures_injected"`
	}
	var entries []entry
	for _, p := range pts {
		entries = append(entries, entry{
			Name:             fmt.Sprintf("ChurnSweep/%s/mtbf=%.0f/r=%d", p.Strategy, p.MTBFSeconds, p.R),
			Strategy:         p.Strategy.String(),
			MTBFSeconds:      p.MTBFSeconds,
			R:                p.R,
			SuccessRate:      p.SuccessRate,
			Inflation:        p.Inflation,
			Failovers:        p.Failovers,
			Rebooks:          p.Rebooks,
			WastedSlotHours:  p.WastedSlotHours,
			FailuresInjected: p.FailuresInjected,
		})
	}
	blob, err := json.MarshalIndent(map[string]any{
		"benchmarks":   entries,
		"wall_seconds": time.Since(start).Seconds(),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d entries)", out, len(entries))
}
