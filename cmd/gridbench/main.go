// Command gridbench regenerates every table and figure of the paper's
// evaluation on the modelled Grid'5000 testbed:
//
//	gridbench -exp table1            # Table 1, the resource inventory
//	gridbench -exp fig2              # Figure 2, concentrate allocation
//	gridbench -exp fig3              # Figure 3, spread allocation
//	gridbench -exp fig4ep            # Figure 4 left, NAS EP times
//	gridbench -exp fig4is            # Figure 4 right, NAS IS times
//	gridbench -exp all               # everything above
//	gridbench -exp conc              # beyond the paper: K concurrent jobs
//	gridbench -exp scale -grid synth:S=10,H=100   # beyond the paper: world-size sweep
//	gridbench -exp scale -grid synth:S=16,H=100 -hosts 5000,20000,50000 -sn 1,4,16
//	                                 # beyond the paper: federated membership tier at 50k hosts
//	gridbench -exp churn -grid synth:S=12,H=400 -mtbf 600,1800,3600 -R 1,2,3
//	                                 # beyond the paper: survivability under host churn
//	gridbench -exp open -grid synth:S=3,H=8 -arrival poisson:rate=0.02 -duration 2h
//	gridbench -exp open -arrival diurnal:peak=0.05,trough=0.005,period=1h -tenants 4 -duration 3h
//	                                 # beyond the paper: open-system steady state
//	gridbench -exp nemesis -grid synth:S=3,H=8 -loss 0,0.1,0.3 -partdur 0,60 -sn 4
//	gridbench -exp nemesis -faults "gray:frac=0.2,mtbf=2m;dup:p=0.01" -loss 0.1 -partdur 30
//	                                 # beyond the paper: partition & gray-failure tolerance
//	gridbench -exp estimators        # beyond the paper: latency-estimator ablation
//
// The conc experiment family submits K identical jobs simultaneously
// through the multi-job scheduler and reports, per strategy, the mean
// allocation footprint (sites/hosts used), completion time and the
// reservation-conflict rate — contention the paper's one-job-at-a-time
// harness never exercises. Tune it with -jobs (K axis), -n, -r.
//
// The churn experiment family injects seeded host failures (exponential
// or Weibull MTBF/MTTR per host via -mtbf/-mttr/-dist, optionally
// correlated whole-site outages via -sitemtbf) while a batch of
// fixed-duration jobs (-cjobs, -dur) runs with the mid-run failure
// detector armed, and reports per (strategy, MTBF, replication degree)
// point the job success rate, completion-time inflation, replica
// failovers, re-booked attempts and wasted slot-hours. -R sets the
// replication axis. Identical seeds replay identical failures, whatever
// -workers is.
//
// The open experiment family replaces the closed batches with an open
// arrival process (-arrival "poisson:rate=0.5" or
// "diurnal:peak=2,trough=0.2,period=24h,maintevery=6h,maintdur=30m")
// over -tenants users with Zipf rate skew (-skew) and stratified
// admission priorities (-prilevels), replayed for -duration of virtual
// time with the leading -warmup truncated. Job widths and service
// durations are bounded-Pareto draws. Per strategy it reports
// steady-state utilization, queue-wait P50/P90/P99 and bounded-slowdown
// percentiles from streaming t-digests (O(1) memory per metric,
// whatever the submission count), and Jain fairness across tenants.
// A single -mtbf value composes host churn with the open workload.
//
// The nemesis experiment family injects seeded network misbehaviour —
// site-pair partitions including federation-splitting bisections,
// uniform cross-site frame loss, latency inflation, gray hosts that
// stay up but drop or slow traffic, and bounded frame duplication —
// while a batch of jobs runs with the RPC robustness layer (deadlines,
// seeded exponential-backoff retries, receiver-side idempotency,
// per-supernode circuit breakers) armed. -loss and -partdur are the
// swept axes; -faults supplies the remaining fault-model knobs in the
// faults.ParseFaultSpec syntax; -rpcretries sets the retry budget (-1
// disables the layer, the no-robustness baseline); a single -mtbf
// composes host churn on top. Per (loss, partition duration) point it
// reports success rate, completion-time inflation, retry volume and —
// on federated worlds (-sn K>1) — the split-brain window and the
// anti-entropy healing latency after each partition lifts.
//
// The scale experiment family frees the evaluation from Table 1: it
// boots synthetic worlds described by -grid (site count, hosts per
// site, seeded inter-site RTT distribution; see grid.ParseTopologySpec)
// and measures every registered placement strategy at every -hosts world
// size, reporting completion time, allocation footprint and
// reservation-conflict rate per (strategy, size) point as CSV with
// -format csv. -a selects a strategy subset ("all" by default; any
// comma-separated registered names, e.g. -a comm-aware,minsites). -sn
// adds the membership-tier axis: each K boots a federation of K
// gossiping supernode shards (registration latency, gossip staleness
// and membership bytes join the CSV columns), which is what pushes the
// sweeps into the 50k-host regime — a single supernode's O(world)
// replies saturate long before the simulation core does.
//
// Experiments built from independent worlds (fig4's two strategy
// worlds, every conc, scale, churn, open and nemesis sweep point) run
// across a -workers wide pool;
// outputs are byte-identical whatever the worker count. fig2 and fig3
// are inherently sequential — their points share one world.
//
// The -seed flag changes the stochastic elements (latency jitter, key
// generation); the published numbers use seed 42 (README, "Regenerating
// the paper's figures and tables").
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"p2pmpi/internal/churn"
	"p2pmpi/internal/core"
	"p2pmpi/internal/exp"
	"p2pmpi/internal/faults"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/workload"
)

// kind says which flags an experiment takes and whether -exp all runs it.
type kind int

const (
	figure kind = iota // a paper figure: run by -exp all, pinned to grid5000 and one supernode
	pinned             // pinned like the figures, but not part of -exp all
	family             // beyond the paper: takes -grid and -sn
)

// experiment is one -exp value.
type experiment struct {
	name, help string
	kind       kind
	run        func(e env) error
}

// env is the parsed state every experiment runs from.
type env struct {
	csv bool
	// opts is the paper's harness (Grid'5000, one supernode); topoOpts
	// deploys -grid with a single -sn width.
	opts, topoOpts exp.Options
	topo           grid.TopologySpec
	strategies     []core.Strategy
	snAxis         []int
}

var experiments = []experiment{
	{"table1", "Table 1, the resource inventory", figure, func(e env) error {
		if e.csv {
			fmt.Print(exp.Table1CSV())
		} else {
			fmt.Print(exp.RenderTable1())
		}
		return nil
	}},
	{"fig2", "Figure 2, concentrate allocation", figure, func(e env) error {
		pts, err := exp.Fig2(e.opts, nil)
		return emit(e, pts, err, exp.SitePointsCSV, exp.RenderSitePoints,
			"Figure 2: concentrate — allocated hosts/cores per site")
	}},
	{"fig3", "Figure 3, spread allocation", figure, func(e env) error {
		pts, err := exp.Fig3(e.opts, nil)
		return emit(e, pts, err, exp.SitePointsCSV, exp.RenderSitePoints,
			"Figure 3: spread — allocated hosts/cores per site")
	}},
	{"fig4ep", "Figure 4 left, NAS EP times", figure, func(e env) error {
		pts, err := exp.Fig4EP(e.opts, nil, *workers)
		return emit(e, pts, err, exp.TimePointsCSV, exp.RenderTimePoints,
			"Figure 4 (left): EP CLASS B total time")
	}},
	{"fig4is", "Figure 4 right, NAS IS times", figure, func(e env) error {
		pts, err := exp.Fig4IS(e.opts, nil, *workers)
		return emit(e, pts, err, exp.TimePointsCSV, exp.RenderTimePoints,
			"Figure 4 (right): IS CLASS B total time")
	}},
	{"conc", "K concurrent jobs through the multi-job scheduler", family, runConc},
	{"scale", "strategies across world sizes and federation widths", family, runScale},
	{"churn", "survivability under seeded host churn", family, runChurn},
	{"open", "open-system steady state under an arrival process", family, runOpen},
	{"nemesis", "partition and gray-failure tolerance", family, runNemesis},
	{"estimators", "latency-estimator ablation", pinned, func(e env) error {
		pts, err := exp.EstimatorStudy(e.opts, nil, 4)
		if err != nil {
			return err
		}
		fmt.Println("Estimator study: booking-order quality after 4 probe rounds")
		fmt.Printf("%-8s %12s\n", "kind", "kendall-tau")
		for _, p := range pts {
			fmt.Printf("%-8s %12.4f\n", p.Kind, p.Tau)
		}
		return nil
	}},
}

var (
	which    = flag.String("exp", "all", expHelp())
	seed     = flag.Int64("seed", 42, "simulation seed")
	format   = flag.String("format", "table", "output format: table|csv")
	jobs     = flag.String("jobs", "1,2,4,8,16", "conc: comma-separated K values (concurrent jobs per point)")
	n        = flag.Int("n", 32, "conc/scale/churn: processes per job")
	r        = flag.Int("r", 1, "conc/scale: replication degree per job")
	gridSpec = flag.String("grid", "grid5000", "topology: grid5000 or synth:S=12,H=400,C=2,seed=7,rttmin=5ms,rttmax=25ms")
	alloc    = flag.String("a", "all", "conc/scale/churn: strategies, \"all\" or comma-separated names from: "+strings.Join(core.Names(), "|"))
	hosts    = flag.String("hosts", "", "scale: comma-separated world sizes (hosts); default: the -grid spec's own size")
	sn       = flag.String("sn", "", "supernode-federation width K; scale takes a comma-separated axis (e.g. 1,4,16), conc/churn a single value; default: the -grid spec's sn value (1)")
	workers  = flag.Int("workers", exp.DefaultWorkers(), "pool width for fig4, conc, scale and churn sweeps (independent worlds)")
	shards   = flag.Int("shards", 1, "conservative-parallel shard count per world: partition sites onto N event loops synchronized by lookahead barriers (1 = sequential; output is byte-identical for any value)")
	// The duration flags all accept bare seconds ("600") or Go
	// durations ("10m"), matching the -mtbf axis syntax.
	mtbf       = flag.String("mtbf", "", "churn: comma-separated per-host MTBF axis (seconds or Go durations, e.g. 600,1800 or 10m,30m)")
	mttr       = flag.String("mttr", "60", "churn: mean per-host repair time (seconds or Go duration)")
	rAxis      = flag.String("R", "1,2", "churn: comma-separated replication-degree axis")
	cjobs      = flag.Int("cjobs", 8, "churn: jobs per sweep point")
	dur        = flag.Float64("dur", 120, "churn: per-job spin duration (virtual seconds, the failure-free baseline)")
	detect     = flag.String("detect", "10", "churn: failure-detector probe period (seconds or Go duration)")
	dist       = flag.String("dist", "exp", "churn: lifetime distribution, exp|weibull")
	shape      = flag.Float64("shape", 0.7, "churn: Weibull shape (with -dist weibull)")
	siteMTBF   = flag.String("sitemtbf", "0", "churn: mean time between correlated whole-site outages (seconds or Go duration; 0 disables)")
	siteMTTR   = flag.String("sitemttr", "0", "churn: mean whole-site outage duration (seconds or Go duration; default sitemtbf/20)")
	arrival    = flag.String("arrival", "poisson:rate=0.01", "open: arrival process, poisson:rate=R or diurnal:peak=P,trough=T[,period=D,maintevery=D,maintdur=D]")
	tenants    = flag.Int("tenants", 1, "open: submitting tenants")
	skew       = flag.Float64("skew", 0, "open: Zipf skew of the tenants' rate shares (0 = equal)")
	priLevels  = flag.Int("prilevels", 1, "open: admission priority levels stratified over the tenants")
	duration   = flag.String("duration", "", "open: arrival horizon (seconds or Go duration, required)")
	warmup     = flag.String("warmup", "auto", "open: leading transient excluded from statistics (auto = duration/10, 0 = none)")
	maxSubs    = flag.Int("maxsubs", 0, "open: cap the submission trace per point (0 = uncapped)")
	nMin       = flag.Int("nmin", 0, "open: minimum processes per submission (0 = workload default)")
	nMax       = flag.Int("nmax", 0, "open: maximum processes per submission (0 = workload default)")
	durMin     = flag.Float64("durmin", 0, "open: minimum job service time (virtual seconds; 0 = workload default)")
	durMax     = flag.Float64("durmax", 0, "open: maximum job service time (virtual seconds; 0 = workload default)")
	quota      = flag.Float64("quota", 0, "open: per-tenant quota accrual rate (slot-seconds per virtual second; 0 disables quotas)")
	quotaBurst = flag.Float64("quotaburst", 0, "open: quota bucket cap (slot-seconds; 0 = one hour at -quota)")
	preempt    = flag.Bool("preempt", false, "open: let starved in-budget higher-priority jobs evict over-budget lower-priority running jobs")
	inflight   = flag.Int("inflight", 0, "open: scheduler worker pool — max concurrent in-flight jobs per point (0 = default 8; size to arrival-rate × service time or the backlog grows)")
	deadline   = flag.String("deadline", "", "open: comma-separated per-priority-class deadline factors, highest class first (deadline = arrival + factor×service; last entry reused; empty disables SLO tracking)")
	faultsSpec = flag.String("faults", "", "nemesis: fault-model spec (part:mtbf=10m,split=1;link:loss=0.1,mult=2;gray:frac=0.1,mtbf=5m;dup:p=0.01); -loss/-partdur override its link-loss and partition-duration values as swept axes")
	lossAxis   = flag.String("loss", "", "nemesis: comma-separated cross-site drop-probability axis (e.g. 0,0.1,0.3)")
	partDur    = flag.String("partdur", "", "nemesis: comma-separated mean partition duration axis (seconds or Go durations; 0 = no partitions at that point)")
	rpcRetries = flag.Int("rpcretries", 2, "nemesis: RPC robustness-layer retry budget per exchange (-1 disables the layer)")
	breaker    = flag.Int("breaker", 0, "nemesis: per-supernode circuit-breaker threshold (consecutive failures; 0 disables)")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
	memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit (pprof format)")
)

// expHelp lists every experiment for the -exp usage text.
func expHelp() string {
	var b strings.Builder
	b.WriteString("experiment, one of:")
	for _, x := range experiments {
		fmt.Fprintf(&b, "\n  %-10s %s", x.name, x.help)
		if x.kind == figure {
			b.WriteString(" (in all)")
		}
	}
	fmt.Fprintf(&b, "\n  %-10s every experiment marked (in all)", "all")
	return b.String()
}

func main() {
	flag.Parse()

	// Profiling hooks: hot-path hunts run the very binary that produces
	// the figures instead of an ad-hoc test rig, so the profile covers
	// world boot, the sweep pool and rendering exactly as shipped.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			usage("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gridbench: -memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "gridbench: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	var selected []experiment
	var all, families []string
	for _, x := range experiments {
		all = append(all, x.name)
		if x.kind == family {
			families = append(families, x.name)
		}
		if x.name == *which || (*which == "all" && x.kind == figure) {
			selected = append(selected, x)
		}
	}
	if len(selected) == 0 {
		usage("unknown experiment %q (try: all, %s)", *which, strings.Join(all, ", "))
	}
	topo, err := grid.ParseTopologySpec(*gridSpec)
	if err != nil {
		usage("-grid: %v", err)
	}
	strategies, err := parseStrategies(*alloc)
	if err != nil {
		usage("-a: %v", err)
	}
	var snAxis []int
	if *sn != "" {
		snAxis = intsFlag("sn", *sn)
	}
	takers := strings.Join(families[:len(families)-1], ", ") + " and " + families[len(families)-1]
	for _, x := range selected {
		if x.kind == family {
			continue
		}
		if topo.IsSynthetic() {
			usage("-grid %s only applies to -exp %s; the paper figures are pinned to grid5000", topo, takers)
		}
		if snAxis != nil {
			usage("-sn only applies to -exp %s; the paper figures are pinned to the single supernode", takers)
		}
	}
	// Only the scale family sweeps a federation-width axis.
	if len(snAxis) > 1 && *which != "scale" {
		usage("-sn: %s takes a single federation width", *which)
	}

	e := env{csv: *format == "csv", topo: topo, strategies: strategies, snAxis: snAxis}
	e.opts = exp.DefaultOptions(*seed)
	e.opts.Shards = *shards
	e.topoOpts = e.opts
	e.topoOpts.Topology = topo
	if len(snAxis) == 1 {
		e.topoOpts.Supernodes = snAxis[0]
	}
	for _, x := range selected {
		start := time.Now()
		if err := x.run(e); err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: %s: %v\n", x.name, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %.1fs wall]\n\n", x.name, time.Since(start).Seconds())
	}
}

// emit prints a finished sweep as CSV or as a titled table.
func emit[P any](e env, pts []P, err error, toCSV func([]P) string, render func(string, []P) string, title string) error {
	if err != nil {
		return err
	}
	if e.csv {
		fmt.Print(toCSV(pts))
	} else {
		fmt.Print(render(title, pts))
	}
	return nil
}

func runConc(e env) error {
	ks := intsFlag("jobs", *jobs)
	for _, strategy := range e.strategies {
		pts, err := exp.ConcurrentSweep(e.topoOpts, strategy, ks, exp.ConcurrentConfig{N: *n, R: *r}, *workers)
		title := fmt.Sprintf("Concurrent jobs — %s, n=%d r=%d", strategy, *n, *r)
		if err := emit(e, pts, err, exp.ConcurrentPointsCSV, exp.RenderConcurrentPoints, title); err != nil {
			return err
		}
	}
	return nil
}

func runScale(e env) error {
	var hostCounts []int
	if *hosts != "" {
		hostCounts = intsFlag("hosts", *hosts)
	}
	pts, err := exp.ScaleSweep(e.opts, exp.ScaleConfig{
		Base:       e.topo,
		Strategies: e.strategies,
		HostCounts: hostCounts,
		Supernodes: e.snAxis,
		N:          *n,
		R:          *r,
	}, *workers)
	toCSV := exp.ScalePointsCSV
	if len(e.snAxis) > 1 || slices.ContainsFunc(pts, func(p exp.ScalePoint) bool { return p.SN > 1 }) {
		toCSV = exp.FederationPointsCSV
	}
	return emit(e, pts, err, toCSV, exp.RenderScalePoints,
		fmt.Sprintf("Scale sweep — %s, n=%d r=%d", e.topo, *n, *r))
}

func runChurn(e env) error {
	mtbfs, err := parseDurations(*mtbf)
	if err != nil || len(mtbfs) == 0 {
		usage("-mtbf: need a comma-separated axis like 600,1800,3600 (%v)", err)
	}
	cfg := exp.ChurnConfig{
		Base:         e.topo,
		Strategies:   e.strategies,
		MTBFs:        mtbfs,
		Rs:           intsFlag("R", *rAxis),
		N:            *n,
		Jobs:         *cjobs,
		JobSeconds:   *dur,
		MTTR:         durFlag("mttr", *mttr),
		Dist:         distFlag(),
		WeibullShape: *shape,
		SiteMTBF:     durFlag("sitemtbf", *siteMTBF),
		SiteMTTR:     durFlag("sitemttr", *siteMTTR),
		Detect:       durFlag("detect", *detect),
	}
	pts, err := exp.ChurnSweep(e.topoOpts, cfg, *workers)
	return emit(e, pts, err, exp.ChurnPointsCSV, exp.RenderChurnPoints,
		fmt.Sprintf("Churn sweep — %s, n=%d, %d jobs/point, %gs jobs, mttr=%s",
			e.topo, *n, *cjobs, *dur, cfg.MTTR))
}

func runOpen(e env) error {
	spec, err := workload.ParseArrivalSpec(*arrival)
	if err != nil {
		usage("-arrival: %v", err)
	}
	if *duration == "" {
		usage("-exp open needs -duration (e.g. -duration 2h)")
	}
	cfg := exp.OpenConfig{
		Base:           e.topo,
		Strategies:     e.strategies,
		Arrival:        spec,
		Tenants:        *tenants,
		TenantSkew:     *skew,
		PriorityLevels: *priLevels,
		Duration:       durFlag("duration", *duration),
		// "auto" keeps the duration/10 transient cut; an explicit value —
		// including 0 — means exactly that value.
		Warmup:         exp.WarmupAuto,
		R:              *r,
		MaxSubmissions: *maxSubs,
		Workers:        *inflight,
		NMin:           *nMin,
		NMax:           *nMax,
		DurMin:         *durMin,
		DurMax:         *durMax,
		QuotaRate:      *quota,
		QuotaBurst:     *quotaBurst,
		Preempt:        *preempt,
	}
	if *warmup != "auto" {
		cfg.Warmup = durFlag("warmup", *warmup)
	}
	if *deadline != "" {
		cfg.DeadlineFactors = floatsFlag("deadline", *deadline)
	}
	// A single -mtbf value composes host churn with the open workload.
	if *mtbf != "" {
		cfg.MTBF = durFlag("mtbf", *mtbf)
		cfg.Dist = distFlag()
		cfg.MTTR = durFlag("mttr", *mttr)
		cfg.WeibullShape = *shape
		cfg.SiteMTBF = durFlag("sitemtbf", *siteMTBF)
		cfg.SiteMTTR = durFlag("sitemttr", *siteMTTR)
		cfg.Detect = durFlag("detect", *detect)
	}
	pts, err := exp.OpenSweep(e.topoOpts, cfg, *workers)
	return emit(e, pts, err, exp.OpenPointsCSV, exp.RenderOpenPoints,
		fmt.Sprintf("Open-system steady state — %s, %s, %d tenants, %v horizon",
			e.topo, spec, *tenants, cfg.Duration))
}

func runNemesis(e env) error {
	fc, err := faults.ParseFaultSpec(*faultsSpec)
	if err != nil {
		usage("-faults: %v", err)
	}
	cfg := exp.NemesisConfig{
		Base:             e.topo,
		Strategy:         e.strategies[0],
		LatMult:          fc.LatMult,
		Dup:              fc.DupProb,
		DupDelay:         fc.DupDelay,
		GrayFrac:         fc.GrayFrac,
		GrayMTBF:         fc.GrayMTBF,
		GrayMTTR:         fc.GrayMTTR,
		GrayDrop:         fc.GrayDrop,
		GraySlow:         fc.GraySlow,
		N:                *n,
		R:                *r,
		Jobs:             *cjobs,
		JobSeconds:       *dur,
		Detect:           durFlag("detect", *detect),
		RPCRetries:       *rpcRetries,
		BreakerThreshold: *breaker,
	}
	if *lossAxis != "" {
		cfg.Losses = floatsFlag("loss", *lossAxis)
	} else if fc.Loss > 0 {
		cfg.Losses = []float64{fc.Loss}
	}
	if *partDur != "" {
		if cfg.PartDurs, err = parseDurations(*partDur); err != nil {
			usage("-partdur: %v", err)
		}
	} else if fc.PartMTBF > 0 {
		cfg.PartDurs = []time.Duration{fc.PartMTTR}
	}
	if fc.PartMTBF > 0 {
		cfg.PartMTBF = fc.PartMTBF
		cfg.NoSplit = !fc.Split
	}
	// A single -mtbf value composes host churn, as in -exp open.
	if *mtbf != "" {
		cfg.MTBF = durFlag("mtbf", *mtbf)
		cfg.MTTR = durFlag("mttr", *mttr)
	}
	pts, err := exp.NemesisSweep(e.topoOpts, cfg, *workers)
	toCSV := func(pts []exp.NemesisPoint) string {
		out := exp.NemesisPointsCSV(pts)
		if len(pts) > 0 && pts[0].SN > 1 {
			out += "\n" + exp.NemesisFederationCSV(pts)
		}
		return out
	}
	return emit(e, pts, err, toCSV, exp.RenderNemesisPoints,
		fmt.Sprintf("Network nemesis — %s, n=%d r=%d, %d jobs/point, %gs jobs",
			e.topo, *n, *r, *cjobs, *dur))
}

// usage reports a bad invocation and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gridbench: "+format+"\n", args...)
	os.Exit(2)
}

// durFlag parses one duration value or exits 2; bare numbers are
// seconds ("600"), Go durations work too ("10m").
func durFlag(name, v string) time.Duration {
	ds, err := parseDurations(v)
	if err == nil && len(ds) != 1 {
		err = fmt.Errorf("want one duration, got %q", v)
	}
	if err != nil {
		usage("-%s: %v", name, err)
	}
	return ds[0]
}

// distFlag parses -dist or exits 2.
func distFlag() churn.DistKind {
	d, err := churn.ParseDistKind(*dist)
	if err != nil {
		usage("-dist: %v", err)
	}
	return d
}

// intsFlag parses a comma-separated axis of positive integers
// ("1,2,4,8") or exits 2.
func intsFlag(name, s string) []int {
	var ks []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		k, err := strconv.Atoi(f)
		if err != nil || k < 1 {
			usage("-%s: bad K value %q", name, f)
		}
		ks = append(ks, k)
	}
	if len(ks) == 0 {
		usage("-%s: no K values", name)
	}
	return ks
}

// floatsFlag parses a comma-separated axis of non-negative values
// ("0,0.1,0.3") or exits 2.
func floatsFlag(name, s string) []float64 {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v < 0 {
			usage("-%s: bad value %q", name, f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		usage("-%s: no values", name)
	}
	return out
}

// parseDurations parses a comma-separated duration axis; bare numbers
// are seconds ("600,1800"), Go durations work too ("10m,30m").
func parseDurations(s string) ([]time.Duration, error) {
	var out []time.Duration
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if secs, err := strconv.ParseFloat(f, 64); err == nil {
			out = append(out, time.Duration(secs*float64(time.Second)))
			continue
		}
		d, err := time.ParseDuration(f)
		if err != nil {
			return nil, fmt.Errorf("bad duration %q", f)
		}
		out = append(out, d)
	}
	return out, nil
}

// parseStrategies resolves the -a flag: "all" (or empty) expands to
// every registered strategy; otherwise each comma-separated name must be
// registered.
func parseStrategies(s string) ([]core.Strategy, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return core.Strategies(), nil
	}
	var out []core.Strategy
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		st, err := core.ParseStrategy(f)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no strategies")
	}
	return out, nil
}
