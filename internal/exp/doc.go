// Package exp is the experiment harness: it deploys the complete
// P2P-MPI middleware on a modelled testbed and regenerates every table
// and figure of the paper's evaluation (§5), then extends the
// evaluation along axes the paper never swept.
//
// A World is one booted deployment — one compute peer per grid host,
// one supernode or a K-shard federation, one submitter frontend — under
// a virtual clock (vtime.Scheduler) and a simulated network
// (simnet.Net). The zero topology builds the paper's Grid'5000 (Table
// 1, 350 hosts); grid.TopologySpec scales synthetic worlds to hundreds
// of thousands.
//
// Experiment families:
//
//   - Table1/Fig2/Fig3/Fig4: the paper's figures (experiments.go,
//     estimators.go); README's "Regenerating the paper's figures and
//     tables" gives the commands and the published seed.
//   - ConcurrentJobs/ConcurrentSweep: K simultaneous jobs through the
//     multi-job scheduler, measuring slot contention (concurrent.go).
//   - ScaleSweep: every registered placement strategy across growing
//     world sizes and supernode-federation widths (scale.go).
//   - ChurnSweep: survivability under seeded host failures — success
//     rate, completion-time inflation, replica failovers and wasted
//     slot-hours per (strategy, MTBF, replication degree) point
//     (churn.go, internal/churn).
//   - RunOpen/OpenSweep: open-system steady state — an arrival process
//     replayed through the priority scheduler for a virtual horizon,
//     reduced to utilization, wait and slowdown percentiles, fairness
//     and SLO attainment (open.go, internal/workload).
//   - NemesisSweep: partition and gray-failure tolerance of the RPC
//     robustness layer per (loss, partition duration) point (nemesis.go,
//     internal/faults).
//
// Every sweep runs its coordinates — each an independent world —
// through one generic pool (sweep.go): because each world is
// deterministic under its seed, outputs are byte-identical whatever the
// pool width, shard count or, where noted, federation width — the
// property the golden and determinism tests pin.
package exp
