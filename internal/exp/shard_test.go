package exp

import (
	"testing"
	"time"

	"p2pmpi/internal/grid"
)

// Cross-shard determinism property tests: the committed golden CSVs
// (testdata/, owned by the TestGolden* sequential runs) must be
// reproduced byte for byte by every sharded configuration. This is the
// contract that makes -shards a pure performance axis — partitioning
// the virtual timeline across per-site schedulers, whatever the shard
// count, worker count or federation width, may not move a single
// virtual timestamp, jitter draw or placement that the experiment
// CSVs observe.
//
// Shard counts above the site count (the golden base has 3 sites)
// exercise the clamp in grid.PartitionSites: -shards 8 on a 3-site
// grid runs 3 shards.

// TestShardDeterminismScale: the scale family across
// shards 1/2/4/8 × federation width 1/4 × workers 1/4.
func TestShardDeterminismScale(t *testing.T) {
	skipWhileUpdating(t)
	cfg := ScaleConfig{Base: goldenBase(t), N: 6}
	goldenCompare(t, "golden_scale.csv", sameAcross(t, shapes([]int{1, 4}, []int{1, 2, 4, 8}, []int{1, 4}),
		func(s shape) (string, error) {
			c := cfg
			c.Supernodes = []int{s.sn}
			pts, err := ScaleSweep(s.opts(42), c, s.workers)
			return ScalePointsCSV(pts), err
		}))
}

// TestShardDeterminismChurn: the fault-injection family — the churn
// timeline replays at window barriers in sharded worlds
// (churn.StartGlobal) instead of on a replay actor, and must still
// fire every failure, detection and re-book at the same virtual
// instant.
func TestShardDeterminismChurn(t *testing.T) {
	skipWhileUpdating(t)
	cfg := goldenChurnConfig(t)
	goldenCompare(t, "golden_churn.csv", sameAcross(t, shapes([]int{1}, []int{1, 2, 4, 8}, []int{1, 4}),
		func(s shape) (string, error) {
			pts, err := ChurnSweep(s.opts(42), cfg, s.workers)
			return ChurnPointsCSV(pts), err
		}))
}

// TestShardDeterminismConc: the K-concurrent-jobs family.
func TestShardDeterminismConc(t *testing.T) {
	skipWhileUpdating(t)
	goldenCompare(t, "golden_conc.csv",
		sameAcross(t, shapes([]int{1}, []int{1, 2, 4, 8}, []int{1, 4}), concGoldenRun(t)))
}

// TestShardDeterminismFederated pins the sharded path on the
// multi-supernode federation overlay at a non-trivial scale: one
// federated world per shard count, all producing the same scale point.
func TestShardDeterminismFederated(t *testing.T) {
	cfg := ScaleConfig{Base: goldenBase(t), N: 4, Supernodes: []int{4}}
	got := sameAcross(t, shapes([]int{4}, []int{1, 2, 3}, []int{2}), func(s shape) (string, error) {
		pts, err := ScaleSweep(s.opts(7), cfg, s.workers)
		return ScalePointsCSV(pts), err
	})
	if got == "" {
		t.Fatal("no output")
	}
}

// TestShardBootStormDriftBounded pins the one known, bounded deviation
// of sharded runs from the sequential timeline — and that it stays
// bounded. A delivery planned inside a window cannot see cross-shard
// traffic that merges at the barrier with an earlier reservation start
// on the same receiver NIC; the serializer frontiers and every
// cross-shard arrival are corrected to the exact sequential values at
// the merge (simnet's as-if-sorted replay), but a local delivery that
// already fired keeps its optimistic — early — arrival. The only place
// the overlap is dense enough to observe is a multi-thousand-host boot
// storm funnelling registrations into the supernode NICs, and the only
// number that moves is the registration round-trip metric.
//
// The test boots the CI federation-smoke world (2000 hosts, K=4)
// sequentially and on 4 shards and asserts the contract the docs
// promise: registration *counts* identical, per-peer RTT drift under
// the 250µs jitter floor (measured max ≈ 193µs), mean drift under
// 0.2%. Everything the golden suite observes is exact; this is the
// fence around what is not.
func TestShardBootStormDriftBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two 2000-host worlds")
	}
	base, err := grid.ParseTopologySpec("synth:S=4,H=500")
	if err != nil {
		t.Fatal(err)
	}
	boot := func(shards int) *World {
		o := DefaultOptions(42)
		o.Topology = specForHosts(base, 2000)
		o.Supernodes = 4
		o.Shards = shards
		o.MaxPeersReturned = 512
		o.PeerRefreshInterval = time.Hour
		w := NewWorld(o)
		if err := w.Boot(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return w
	}
	w1, w4 := boot(1), boot(4)
	defer w1.Close()
	defer w4.Close()
	var sum1, sum4, maxAbs int64
	for i := range w1.Peers {
		s1, s4 := w1.Peers[i].Stats(), w4.Peers[i].Stats()
		if s1.Registrations != s4.Registrations {
			t.Errorf("peer %d registration count diverged: %d vs %d",
				i, s1.Registrations, s4.Registrations)
		}
		sum1 += s1.RegNanos
		sum4 += s4.RegNanos
		d := s4.RegNanos - s1.RegNanos
		if d < 0 {
			d = -d
		}
		if d > maxAbs {
			maxAbs = d
		}
	}
	const jitterFloor = int64(250_000) // DefaultConfig JitterFloor in ns
	if maxAbs >= jitterFloor {
		t.Errorf("per-peer registration drift %dns reached the %dns jitter floor", maxAbs, jitterFloor)
	}
	mean1, mean4 := sum1/int64(len(w1.Peers)), sum4/int64(len(w4.Peers))
	rel := float64(mean4-mean1) / float64(mean1)
	if rel < 0 {
		rel = -rel
	}
	if rel >= 0.002 {
		t.Errorf("mean registration drift %.4f%% (seq %dns, sharded %dns)", 100*rel, mean1, mean4)
	}
	t.Logf("drift: max %dns per peer, mean %dns -> %dns (%.4f%%)", maxAbs, mean1, mean4, 100*rel)
}
