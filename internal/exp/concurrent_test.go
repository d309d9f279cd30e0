package exp

import (
	"strings"
	"testing"

	"p2pmpi/internal/core"
)

// TestConcurrentJobsContention runs 4 simultaneous 60-process
// concentrate jobs. Nancy alone can host one such job (240 cores), so
// the jobs spill across sites and at least some reservation requests
// collide at J=1 hosts — the regime the paper never measures.
func TestConcurrentJobsContention(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the full 350-peer grid")
	}
	pt, err := ConcurrentJobs(DefaultOptions(42), core.Concentrate, 4,
		ConcurrentConfig{N: 60, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Completed != 4 || pt.Failed != 0 {
		t.Fatalf("completed/failed = %d/%d, want 4/0 (%+v)", pt.Completed, pt.Failed, pt)
	}
	if pt.MeanHosts < 15 {
		t.Errorf("mean hosts = %.2f, want >= 15 for n=60 concentrate", pt.MeanHosts)
	}
	if pt.MeanSites < 1 {
		t.Errorf("mean sites = %.2f", pt.MeanSites)
	}
	if pt.ReserveOK == 0 {
		t.Error("no reservation ever accepted")
	}
	// 4×60 = 240 processes demanded at once: with nancy's 240 cores the
	// closest hosts are contended, so some reserve traffic must collide.
	if pt.ReserveNOK == 0 {
		t.Error("expected reservation conflicts under 4 concurrent 60-process jobs")
	}
	if pt.ConflictRate <= 0 || pt.ConflictRate >= 1 {
		t.Errorf("conflict rate = %v, want in (0, 1)", pt.ConflictRate)
	}
	if pt.MakespanSeconds <= 0 || pt.MeanJobSeconds <= 0 {
		t.Errorf("timings = %+v", pt)
	}
}

// TestConcurrentSweepParallelDeterminism is the acceptance check for the
// parallel harness: a sweep run sequentially (workers = 1) and the same
// sweep run on a parallel pool must produce byte-identical CSV.
func TestConcurrentSweepParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the full grid four times")
	}
	var k3 ConcurrentPoint
	sameAcross(t, shapes([]int{1}, []int{1}, []int{1, 4}), func(s shape) (string, error) {
		pts, err := ConcurrentSweep(s.opts(42), core.Spread, []int{2, 3}, ConcurrentConfig{N: 16, R: 1}, s.workers)
		if err != nil {
			return "", err
		}
		k3 = pts[1]
		return ConcurrentPointsCSV(pts), nil
	})
	// Sanity: K=3 spread jobs of 16 processes land on 48 distinct hosts.
	if k3.Completed != 3 {
		t.Fatalf("k=3 completed = %d", k3.Completed)
	}
}

func TestRenderAndCSVConcurrentPoints(t *testing.T) {
	pts := []ConcurrentPoint{{
		K: 4, N: 32, R: 1, Strategy: core.Spread,
		Completed: 4, Attempts: 6, SchedConflicts: 2,
		ReserveOK: 140, ReserveNOK: 12, ConflictRate: 12.0 / 152,
		MeanSites: 2.5, MeanHosts: 32, MeanJobSeconds: 8.25, MakespanSeconds: 30.5,
	}}
	csv := ConcurrentPointsCSV(pts)
	if !strings.Contains(csv, "spread,4,32,1,4,0,6,2,140,12,0.0789,2.50,32.00,8.250,30.500") {
		t.Fatalf("csv:\n%s", csv)
	}
	out := RenderConcurrentPoints("Concurrent jobs (spread)", pts)
	for _, want := range []string{"Concurrent jobs (spread)", "140/12", "7.9%", "30.500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
