// Command simbench is the repository's benchmark. It runs one workload
// of the simulator — paper, week, fed or contend, see README.md — once
// per child process, checks the simulated output against the reference
// recorded for the seed, and prints one JSON result line.
//
//	simbench -workload week -seed 42 -seconds 5 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics. With -trace 1
// it holds the per-layer metrics: a second child repeats the workload
// with spans recorded around the benchmark's calls into the program and
// a CPU profile bucketed by module, and the difference between the two
// children's run times is the tracing overhead.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// childBudget bounds the wall time of all child processes of one run.
const childBudget = 170 * time.Second

func main() {
	root := flag.String("root", ".", "checkout root (holds simbench/ref)")
	name := flag.String("workload", "", "workload: paper|week|fed|contend")
	seed := flag.Int64("seed", 42, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 5, "minimum measured wall seconds; the workload repeats until reached")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	child := flag.Bool("child", false, "run the workload once in this process and print the raw result (used by the parent)")
	flag.Parse()
	wl, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "simbench: need -workload paper|week|fed|contend and -trace 0|1\n")
		os.Exit(2)
	}
	if *child {
		runChild(wl, *seed, *trace == 1)
		return
	}
	res, err := measure(*root, wl, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// childResult is what a child process prints for its parent.
type childResult struct {
	Err  string `json:",omitempty"`
	Unit *unit  `json:",omitempty"`
	// CPU holds CPU-profile seconds per bucket (traced children only).
	CPU map[string]float64 `json:",omitempty"`
	// AllocMB and GCCycles are runtime.MemStats totals taken when the
	// profiled execution ends (traced children only).
	AllocMB, GCCycles float64
	Spans             []span `json:",omitempty"`
}

// runChild executes the workload once and prints the raw result.
func runChild(wl workloadDef, seed int64, traced bool) {
	var res childResult
	tr := newTracer(traced)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			res.Err = err.Error()
		}
	}
	if res.Err == "" {
		u, err := wl.run(seed, tr)
		if err != nil {
			res.Err = err.Error()
		} else {
			u.Seed = seed
			res.Unit = u
		}
	}
	if traced {
		pprof.StopCPUProfile()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.AllocMB, res.GCCycles = float64(ms.TotalAlloc)/1e6, float64(ms.NumGC)
		if res.Err == "" {
			cpu, err := cpuByBucket(prof.Bytes())
			if err != nil {
				res.Err = err.Error()
			}
			res.CPU = cpu
		}
		if res.Err == "" && wl.probe != nil {
			if err := wl.probe(seed, tr, res.Unit); err != nil {
				res.Err = err.Error()
			}
		}
		res.Spans = tr.spans
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
}

// execSeed is the input seed of a run's i-th execution of a workload:
// the run's seed first, then seed+1000, seed+2000, ... Each execution
// after the first replays other inputs, so a run's median spans several
// inputs instead of one.
func execSeed(seed int64, i int) int64 { return seed + 1000*int64(i) }

// childRun is one child's result with the resources the kernel charged
// to the child process alone.
type childRun struct {
	childResult
	cpuS, rssMB float64
}

func spawn(ctx context.Context, wl workloadDef, seed int64, traced bool) (*childRun, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, os.Args[0], "-child", "-workload", wl.name,
		"-seed", strconv.FormatInt(seed, 10), "-trace", trace)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	run := &childRun{}
	if err := json.Unmarshal(out, &run.childResult); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	if run.Err == "" && run.Unit == nil {
		return nil, errors.New("child: no result")
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("child: no resource usage")
	}
	run.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	run.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	return run, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs the workload's child processes and assembles the result.
// Untraced children, one execution each, run one after the other until
// at least wl.minRuns of them ran and seconds of measured time have
// passed; the metrics are medians over them. A traced run needs one
// untraced child for the overhead and then one traced child.
func measure(root string, wl workloadDef, seed int64, seconds float64, traced bool) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childBudget)
	defer cancel()
	minRuns := max(1, wl.minRuns)
	if traced {
		minRuns = 1
	}
	var plain []*childRun
	for measured := 0.0; len(plain) < minRuns || measured < seconds; {
		r, err := spawn(ctx, wl, execSeed(seed, len(plain)), false)
		if err != nil {
			return nil, err
		}
		plain = append(plain, r)
		if r.Unit == nil {
			break
		}
		measured += r.Unit.RunS
	}
	runs := plain
	var tracedRun *childRun
	if traced {
		var err error
		if tracedRun, err = spawn(ctx, wl, seed, true); err != nil {
			return nil, err
		}
		runs = append(runs, tracedRun)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	completed := 0
	for _, r := range runs {
		if r.Err != "" {
			fmt.Fprintf(os.Stderr, "simbench: %s: %s\n", wl.name, r.Err)
			res.Correct = false
		}
		u := r.Unit
		if u == nil {
			continue
		}
		ref, err := os.ReadFile(filepath.Join(root, "simbench", "ref", fmt.Sprintf("%s.%d.csv", wl.name, u.Seed)))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		if ref != nil && u.Output != string(ref) {
			fmt.Fprintf(os.Stderr, "simbench: %s: output differs from the seed-%d reference:\n%s", wl.name, u.Seed, u.Output)
			res.Correct = false
		}
		if u.Attempted < 1 || u.Completed > u.Attempted {
			fmt.Fprintf(os.Stderr, "simbench: %s: %d of %d submissions completed\n", wl.name, u.Completed, u.Attempted)
			res.Correct = false
		}
		res.Attempted += u.Attempted
		completed += u.Completed
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	if !res.Correct {
		res.Failed, completed = res.Attempted, 0
	}

	if !traced {
		var runS, setups, cpuS, rssMB []float64
		worlds := 0
		for _, r := range plain {
			if r.Unit == nil {
				continue
			}
			worlds = r.Unit.Worlds
			runS = append(runS, r.Unit.RunS)
			setups = append(setups, r.Unit.Setups...)
			cpuS = append(cpuS, r.cpuS)
			rssMB = append(rssMB, r.rssMB)
		}
		res.Metrics["run_s"] = metric{median(runS), "s"}
		res.Metrics["setup_s"] = metric{float64(worlds) * median(setups), "s"}
		res.Metrics["cpu_s"] = metric{median(cpuS), "s"}
		res.Metrics["peak_rss_mb"] = metric{median(rssMB), "MB"}
		res.Metrics["completed_ratio"] = metric{float64(completed) / float64(res.Attempted), "ratio"}
		return res, nil
	}
	layerMetrics(res.Metrics, plain[0], tracedRun)
	printSpans(tracedRun.Spans)
	return res, nil
}

// cpuBuckets lists the per-layer CPU buckets: every p2pmpi/internal
// module, the garbage collector, the rest of the Go runtime, and other.
var cpuBuckets = []string{
	"churn", "core", "exp", "faults", "grid", "latency", "mpd", "mpi", "nas", "overlay",
	"proto", "replica", "reservation", "sched", "simnet", "stats", "transport", "vtime",
	"wire", "workload", "gc", "goruntime", "other",
}

// layerMetrics fills the per-layer metrics from the traced child, and
// the tracing overhead from both children.
func layerMetrics(m map[string]metric, plain, traced *childRun) {
	var total float64
	for _, v := range traced.CPU {
		total += v
	}
	for b, v := range traced.CPU {
		if !slices.Contains(cpuBuckets, b) {
			fmt.Fprintf(os.Stderr, "simbench: CPU bucket %q is not reported on its own (%.3fs)\n", b, v)
		}
	}
	for _, b := range cpuBuckets {
		m[b+".cpu_s"] = metric{traced.CPU[b], "s"}
	}
	attributed := 0.0
	if total > 0 {
		attributed = 100 * (total - traced.CPU["other"]) / total
	}
	m["trace.attributed_pct"] = metric{attributed, "%"}
	if attributed < 95 {
		fmt.Fprintf(os.Stderr, "simbench: only %.1f%% of CPU samples attributed to a layer\n", attributed)
	}

	u := traced.Unit
	if u == nil {
		u = newUnit(0)
	}
	c := u.Counters
	for k, unit := range counterUnits {
		m[k] = metric{c[k], unit}
	}
	m["mpd.reg_ms"] = metric{ratio(c["mpd.reg_ns"], c["mpd.registrations"]) / 1e6, "ms"}
	m["overlay.stale_ms"] = metric{ratio(c["overlay.stale_ns"], c["overlay.stale_samples"]) / 1e6, "ms"}
	m["gc.alloc_mb"] = metric{traced.AllocMB, "MB"}
	m["gc.cycles"] = metric{traced.GCCycles, "count"}
	m["exp.submit_ms_p50"] = metric{quantile(u.SubmitMS, 0.5), "ms"}
	m["exp.submit_ms_p90"] = metric{quantile(u.SubmitMS, 0.9), "ms"}
	m["trace.overhead_s"] = metric{runS(traced) - runS(plain), "s"}
}

// counterUnits lists the counters reported as they were read, with units.
var counterUnits = map[string]string{
	"vtime.pending_events": "count", "vtime.actors": "count", "vtime.ms_per_vh": "ms/vh",
	"vtime.pending_growth_per_vh": "1/vh", "mpd.pings": "count", "mpd.registrations": "count",
	"overlay.bytes": "B", "overlay.gossip_exchanges": "count", "reservation.ok": "count",
	"reservation.nok": "count", "sched.preemptions": "count", "sched.throttle_rate": "ratio",
	"sched.refused": "count", "gc.live_mb": "MB",
}

// printSpans writes the traced child's span summary ahead of the result.
func printSpans(spans []span) {
	totals := spanTotals(spans)
	sort.SliceStable(totals, func(i, j int) bool { return totals[i].Self > totals[j].Self })
	fmt.Printf("%-16s %6s %10s %10s\n", "span", "calls", "total_s", "self_s")
	for _, t := range totals {
		fmt.Printf("%-16s %6d %10.3f %10.3f\n", t.Name, t.Count, t.Total, t.Self)
	}
}

// runS is a child's measured wall seconds (0 when it has no result).
func runS(r *childRun) float64 {
	if r.Unit == nil {
		return 0
	}
	return r.Unit.RunS
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks (0 when xs
// is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// slope is the least-squares slope of ys against their indices.
func slope(ys []float64) float64 {
	n := float64(len(ys))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i, y := range ys {
		x := float64(i)
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
