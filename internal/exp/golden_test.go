package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
)

// Golden-trace regression tests: the committed CSVs under testdata/ pin
// the exact output of one tiny fixed-seed run of each experiment
// family. Every run here must reproduce them byte for byte — whatever
// the worker count, and (for the static scale world) whatever the
// supernode-federation width. This replaces the ad-hoc manual golden
// comparisons earlier PRs did by hand: any change that moves a virtual
// timestamp, a jitter draw or a placement now fails visibly in CI, and
// intentional changes regenerate the files with
//
//	UPDATE_GOLDEN=1 go test -run TestGolden ./internal/exp/
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from the committed golden:\n--- want ---\n%s--- got ---\n%s",
			name, want, got)
	}
}

func goldenBase(t *testing.T) grid.TopologySpec {
	t.Helper()
	spec, err := grid.ParseTopologySpec("synth:S=3,H=8")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// skipWhileUpdating skips a test that compares against a golden owned
// by a TestGolden* run while those goldens are being regenerated.
func skipWhileUpdating(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") != "" {
		t.Skip("goldens are being regenerated by the sequential TestGolden* runs")
	}
}

// shape is one execution layout of a sweep: supernode-federation
// width, shard count and pool width. What the determinism tests pin
// must not depend on it.
type shape struct{ sn, shards, workers int }

func (s shape) String() string {
	return fmt.Sprintf("sn=%d shards=%d workers=%d", s.sn, s.shards, s.workers)
}

// opts returns DefaultOptions(seed) deployed in this shape.
func (s shape) opts(seed int64) Options {
	o := DefaultOptions(seed)
	o.Supernodes = s.sn
	o.Shards = s.shards
	return o
}

// shapes is the cross product of the given axes.
func shapes(sns, shards, workers []int) []shape {
	var out []shape
	for _, k := range sns {
		for _, sh := range shards {
			for _, w := range workers {
				out = append(out, shape{k, sh, w})
			}
		}
	}
	return out
}

// sameAcross runs one experiment at every shape and fails unless each
// run renders byte for byte what the first did; it returns those bytes.
func sameAcross(t *testing.T, shapes []shape, run func(s shape) (string, error)) string {
	t.Helper()
	var first string
	for i, s := range shapes {
		got, err := run(s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("%v diverged from %v:\n--- first ---\n%s--- this run ---\n%s",
				s, shapes[0], first, got)
		}
	}
	return first
}

// TestGoldenScaleTrace: the scale family, across worker counts 1/4/8
// and federation widths 1/4 — six runs, one committed byte string.
func TestGoldenScaleTrace(t *testing.T) {
	cfg := ScaleConfig{Base: goldenBase(t), N: 6}
	goldenCompare(t, "golden_scale.csv", sameAcross(t, shapes([]int{1, 4}, []int{1}, []int{1, 4, 8}),
		func(s shape) (string, error) {
			c := cfg
			c.Supernodes = []int{s.sn}
			pts, err := ScaleSweep(s.opts(42), c, s.workers)
			return ScalePointsCSV(pts), err
		}))
}

// goldenChurnConfig is the churn point the golden pins.
func goldenChurnConfig(t *testing.T) ChurnConfig {
	return ChurnConfig{
		Base:       goldenBase(t),
		Strategies: []core.Strategy{core.Spread},
		MTBFs:      []time.Duration{300 * time.Second},
		Rs:         []int{1, 2},
		N:          6,
		Jobs:       3,
		JobSeconds: 40,
		MTTR:       time.Minute,
		Detect:     10 * time.Second,
	}
}

// TestGoldenChurnTrace: one survivability point per R, across worker
// counts — the fault-injection timeline, detector probes, failovers and
// re-books all replay identically.
func TestGoldenChurnTrace(t *testing.T) {
	cfg := goldenChurnConfig(t)
	goldenCompare(t, "golden_churn.csv", sameAcross(t, shapes([]int{1}, []int{1}, []int{1, 4, 8}),
		func(s shape) (string, error) {
			pts, err := ChurnSweep(s.opts(42), cfg, s.workers)
			return ChurnPointsCSV(pts), err
		}))
}

// concGoldenRun runs the K-concurrent-jobs point the golden pins.
func concGoldenRun(t *testing.T) func(s shape) (string, error) {
	base := goldenBase(t)
	return func(s shape) (string, error) {
		opts := s.opts(42)
		opts.Topology = base
		pts, err := ConcurrentSweep(opts, core.Spread, []int{1, 2}, ConcurrentConfig{N: 6}, s.workers)
		return ConcurrentPointsCSV(pts), err
	}
}

// TestGoldenConcTrace: the K-concurrent-jobs family across worker
// counts.
func TestGoldenConcTrace(t *testing.T) {
	goldenCompare(t, "golden_conc.csv",
		sameAcross(t, shapes([]int{1}, []int{1}, []int{1, 4, 8}), concGoldenRun(t)))
}
