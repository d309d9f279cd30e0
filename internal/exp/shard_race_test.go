package exp

import (
	"fmt"
	"testing"
	"time"

	"p2pmpi/internal/churn"
	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/mpd"
	"p2pmpi/internal/sched"
)

// TestShardChurnBarrierRace exercises the sharded barrier path under
// maximum contention for the race detector: a federated world (4
// supernodes on dedicated hosts) split over 3 shard event loops, with
// the churn engine killing hosts — compute hosts and supernode hosts
// alike — at window barriers while jobs run. MTBF well below the run
// horizon makes nearly every host (and with it at least one supernode
// host) cycle down and up mid-run, so the test drives the cross-shard
// failover, FIN, and re-registration machinery while shard workers run
// concurrently. VTIME_CHECK arms the lookahead-safety assertion for
// the whole run.
//
// The run must (a) finish, (b) inject a substantial failure load, and
// (c) reproduce the single-shard timeline byte for byte — no event
// lost or double-fired at any barrier.
func TestShardChurnBarrierRace(t *testing.T) {
	t.Setenv("VTIME_CHECK", "1")

	spec, err := grid.ParseTopologySpec("synth:S=3,H=8")
	if err != nil {
		t.Fatal(err)
	}

	var seqInj *churn.Stats
	sameAcross(t, shapes([]int{4}, []int{1, 3}, []int{1}), func(s shape) (string, error) {
		o := s.opts(99)
		o.Topology = spec
		w := NewWorld(o)
		defer w.Close()
		if err := w.Boot(); err != nil {
			return "", err
		}
		budget := runJobsBudget(4)
		driver := w.StartChurn(churn.Config{
			Seed:    subSeed(99, "churn|%d|%d", 60*time.Second, 2),
			MTBF:    60 * time.Second,
			MTTR:    30 * time.Second,
			Horizon: time.Duration(budget) * time.Second,
		})
		jspec := mpd.JobSpec{
			Program: "spin", Args: []string{"30"},
			N: 6, R: 2, Strategy: core.Spread,
			Timeout:        3 * time.Minute,
			FailureDetect:  5 * time.Second,
			ReserveRetries: 1,
		}
		jobs, stats, err := RunJobs(w, jspec, 4, sched.Config{
			Workers: 2, Retries: 4, Backoff: 5 * time.Second,
			Seed: 99, IsContention: ChurnRetryable,
		})
		injected := driver.Stop()
		if err != nil {
			return "", err
		}
		if seqInj == nil {
			seqInj = &injected
		}
		out := fmt.Sprintf("injected %+v\nscheduler %+v\n", injected, stats)
		for _, j := range jobs {
			out += jobLine(j) + "\n"
		}
		return out, nil
	})
	if seqInj.Failures < 10 {
		t.Fatalf("churn load too light to mean anything: %d failures", seqInj.Failures)
	}
}

// jobLine flattens the determinism-relevant outcome of one job.
func jobLine(j *sched.Job) string {
	fo, hl := -1, -1
	if j.Result != nil {
		fo = j.Result.Failover.Failovers
		hl = j.Result.Failover.HostsLost
	}
	errs := "<nil>"
	if j.Err != nil {
		errs = j.Err.Error()
	}
	return fmt.Sprintf("%v|%v|%d|%d|%d|%d|%s",
		j.Latency(), j.Wasted, j.Attempts, j.Conflicts, fo, hl, errs)
}
