package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/exp"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/mpd"
	"p2pmpi/internal/workload"
)

// unit is what one execution of a workload reports: the set-up and
// measured-phase wall times, the simulated submissions, the rendered
// output checked against the reference, and the layer counters read
// from the program's public surface.
type unit struct {
	// Seed is the seed the execution's inputs were made from.
	Seed int64
	// Setups holds the wall seconds of each exp.NewWorld + World.Boot;
	// Worlds is how many worlds the workload's own set-up builds.
	Setups []float64
	Worlds int
	// RunS is the wall seconds of the measured phase.
	RunS float64
	// Attempted counts the measured simulated submissions, Completed
	// those that finished; the rest were refused or failed in the model.
	Attempted, Completed int
	// Output is the workload's CSV, in gridbench's format.
	Output string
	// SubmitMS holds host milliseconds per World.Submit-backed call.
	SubmitMS []float64
	// Counters holds the per-layer counters.
	Counters map[string]float64
}

func newUnit(worlds int) *unit { return &unit{Worlds: worlds, Counters: map[string]float64{}} }

// workloadDef is one benchmark workload. run executes it once; probe, when
// set, adds idle-horizon counters in traced runs, after the CPU profile
// has stopped. minRuns, when above 1, is how many executions, each in a
// child process of its own, an untraced run takes at least.
type workloadDef struct {
	name    string
	run     func(seed int64, tr *tracer) (*unit, error)
	probe   func(seed int64, tr *tracer, u *unit) error
	minRuns int
}

var workloads = []workloadDef{
	{name: "paper", run: runPaper},
	{name: "week", run: weekSpec.run, probe: weekSpec.probe},
	// One fed execution measures about 6 s after a 10 s boot. That phase
	// allocates some 400 MB/s, which makes it swing by ±10% with the
	// memory traffic of a shared host, and its liveness pings vary by
	// some 8% from one seed to the next; an untraced run therefore takes
	// the median of three executions on three seeds.
	{name: "fed", run: runFed, minRuns: 3},
	{name: "contend", run: contendSpec.run, probe: contendSpec.probe},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// boot builds and boots one world, timing the two calls as set-up. In
// traced runs it then forces a collection and records the live heap.
func (u *unit) boot(tr *tracer, opts exp.Options) (*exp.World, error) {
	var w *exp.World
	d, err := tr.do("setup", func() error {
		if _, err := tr.do("exp.NewWorld", func() error { w = exp.NewWorld(opts); return nil }); err != nil {
			return err
		}
		_, err := tr.do("World.Boot", w.Boot)
		return err
	})
	if err != nil {
		w.Close()
		return nil, fmt.Errorf("boot: %w", err)
	}
	u.Setups = append(u.Setups, d)
	if tr.on {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		u.max("gc.live_mb", float64(ms.HeapAlloc)/1e6)
	}
	return w, nil
}

// submit times one call that submits through World.Submit.
func (u *unit) submit(tr *tracer, fn func() error) error {
	d, err := tr.do("World.Submit", fn)
	u.SubmitMS = append(u.SubmitMS, d*1000)
	return err
}

// retire reads a world's public counters into the unit and closes it.
func (u *unit) retire(tr *tracer, w *exp.World) {
	for _, p := range append([]*mpd.MPD{w.Frontal}, w.Peers...) {
		st := p.Stats()
		u.Counters["mpd.pings"] += float64(st.PingsSent)
	}
	for _, p := range w.Peers {
		st := p.Stats()
		u.Counters["mpd.registrations"] += float64(st.Registrations)
		u.Counters["mpd.reg_ns"] += float64(st.RegNanos)
	}
	fs := w.FederationStats()
	u.Counters["overlay.bytes"] += float64(fs.BytesIn + fs.BytesOut)
	u.Counters["overlay.gossip_exchanges"] += float64(fs.GossipExchanges)
	u.Counters["overlay.stale_samples"] += float64(fs.StaleSamples)
	u.Counters["overlay.stale_ns"] += float64(fs.StaleSumNS)
	ok, nok := w.ReserveStats()
	u.Counters["reservation.ok"] += float64(ok)
	u.Counters["reservation.nok"] += float64(nok)
	u.max("vtime.pending_events", float64(w.S.PendingEvents()))
	u.max("vtime.actors", float64(w.S.Actors()))
	tr.do("World.Close", func() error { w.Close(); return nil })
}

func (u *unit) max(key string, v float64) {
	if old, ok := u.Counters[key]; !ok || v > old {
		u.Counters[key] = v
	}
}

// idle advances a booted world by steps × step of virtual time, one
// World.RunFor per step. In traced runs it records the host time per
// idle virtual hour and the least-squares growth of the pending-event
// count per virtual hour.
func (u *unit) idle(tr *tracer, w *exp.World, step time.Duration, steps int) {
	pending := []float64{float64(w.S.PendingEvents())}
	var host float64
	for i := 0; i < steps; i++ {
		d, _ := tr.do("World.RunFor", func() error { w.RunFor(step); return nil })
		host += d
		if tr.on {
			pending = append(pending, float64(w.S.PendingEvents()))
		}
	}
	if tr.on {
		perHour := float64(time.Hour) / float64(step)
		u.Counters["vtime.ms_per_vh"] = host * 1000 / float64(steps) * perHour
		u.Counters["vtime.pending_growth_per_vh"] = slope(pending) * perHour
	}
}

// runPaper is the paper's experiment, as `gridbench -exp all -workers 1`
// runs it: Figures 2 and 3 on one Grid'5000 world each, and both Figure
// 4 curves on one world per (program, strategy). Every n is its own
// submission call so each is timed.
func runPaper(seed int64, tr *tracer) (*unit, error) {
	start := time.Now()
	opts := exp.DefaultOptions(seed)
	strategies := []core.Strategy{core.Concentrate, core.Spread}
	u := newUnit(6)
	var out strings.Builder
	out.WriteString(exp.Table1CSV())
	for _, st := range strategies {
		w, err := u.boot(tr, opts)
		if err != nil {
			return nil, err
		}
		var pts []exp.SitePoint
		for _, n := range exp.DefaultFig23Ns() {
			err = u.submit(tr, func() error {
				p, err := exp.CoAllocationSweep(w, st, []int{n})
				pts = append(pts, p...)
				return err
			})
			if err != nil {
				w.Close()
				return nil, fmt.Errorf("%s: %w", st, err)
			}
		}
		u.retire(tr, w)
		out.WriteString(exp.SitePointsCSV(pts))
	}
	figure4 := []struct {
		program string
		ns      []int
	}{
		{"ep-model-B", exp.DefaultFig4EPNs()},
		{"is-model-B", exp.DefaultFig4ISNs()},
	}
	for _, fig := range figure4 {
		var pts []exp.TimePoint
		for _, st := range strategies {
			w, err := u.boot(tr, opts)
			if err != nil {
				return nil, err
			}
			for _, n := range fig.ns {
				err = u.submit(tr, func() error {
					p, err := exp.NASSweep(w, fig.program, st, []int{n})
					pts = append(pts, p...)
					return err
				})
				if err != nil {
					w.Close()
					return nil, fmt.Errorf("%s %s: %w", fig.program, st, err)
				}
			}
			u.retire(tr, w)
		}
		out.WriteString(exp.TimePointsCSV(pts))
	}
	u.Output = out.String()
	u.Attempted = len(u.SubmitMS)
	u.Completed = u.Attempted // every sweep call checks its slots
	u.RunS = time.Since(start).Seconds() - sum(u.Setups)
	return u, nil
}

// Settings of the fed workload: the `gridbench -exp scale` point on a
// 20k-host, K=4 federation, with the settings scale uses past 2000 hosts.
const (
	fedTopology = "synth:S=4,H=5000"
	fedN        = 64
	fedSteady   = 10 // virtual minutes of steady state after the job
)

// runFed boots the federation, submits one spread hostname job and
// renders it as the `gridbench -exp scale -sn 4 -a spread -n 64` row,
// then runs a steady virtual span one minute at a time.
func runFed(seed int64, tr *tracer) (*unit, error) {
	topo, err := grid.ParseTopologySpec(fedTopology)
	if err != nil {
		return nil, err
	}
	o := exp.DefaultOptions(seed)
	o.Topology = topo
	o.Supernodes = 4
	o.MaxPeersReturned = 512
	o.PeerRefreshInterval = time.Hour
	o.PeerCacheCap = 2
	o.BootSpread = 2 * time.Minute
	o.PeerAliveInterval = 4 * time.Minute

	u := newUnit(1)
	w, err := u.boot(tr, o)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	regMS := float64(w.MeanRegistrationLatency()) / float64(time.Millisecond)
	ok0, nok0 := w.ReserveStats()
	fed0 := w.FederationStats()
	var res *mpd.JobResult
	err = u.submit(tr, func() (err error) {
		res, err = w.Submit(mpd.JobSpec{Program: "hostname", N: fedN, R: 1, Strategy: core.Spread, Timeout: 10 * time.Minute})
		return err
	})
	if err == nil && res.Failures() > 0 {
		err = fmt.Errorf("%d slots failed", res.Failures())
	}
	if err != nil {
		w.Close()
		return nil, fmt.Errorf("fed submit: %w", err)
	}
	ok1, nok1 := w.ReserveStats()
	fed1 := w.FederationStats()
	pt := exp.ScalePoint{
		Strategy:   core.Spread,
		Hosts:      w.Grid.TotalHosts(),
		Cores:      w.Grid.TotalCores(),
		Sites:      len(w.Grid.SiteOrder),
		N:          fedN,
		R:          1,
		Seconds:    res.Duration.Seconds(),
		HostsUsed:  res.Assignment.UsedHosts(),
		SitesUsed:  len(res.Assignment.HostsBySite()),
		ReserveOK:  ok1 - ok0,
		ReserveNOK: nok1 - nok0,
		SN:         len(w.SNs),
		RegMS:      regMS,
		StaleMS:    float64(fed1.MeanStaleness()) / float64(time.Millisecond),
		MembBytes:  (fed1.BytesIn + fed1.BytesOut) - (fed0.BytesIn + fed0.BytesOut),
	}
	if total := pt.ReserveOK + pt.ReserveNOK; total > 0 {
		pt.ConflictRate = float64(pt.ReserveNOK) / float64(total)
	}
	u.Output = exp.FederationPointsCSV([]exp.ScalePoint{pt})
	u.idle(tr, w, time.Minute, fedSteady)
	u.retire(tr, w)
	u.Attempted, u.Completed = 1, 1
	u.RunS = time.Since(start).Seconds()
	return u, nil
}

// openSpec is an open-loop workload replayed by exp.RunOpen, in the
// terms of `gridbench -exp open -a spread`.
type openSpec struct {
	topology, arrival string
	cfg               exp.OpenConfig
	// longHorizon passes the settings RunOpen picks for horizons of a day
	// or more explicitly, so the set-up world is configured exactly like
	// RunOpen's own.
	longHorizon bool
	// probeHours is the idle horizon of the traced probe.
	probeHours int
}

// openSetups is how many times the open workloads repeat their set-up
// for its median: one boot takes milliseconds, too short to time once.
const openSetups = 21

var weekSpec = openSpec{
	topology: "synth:S=4,H=32",
	arrival:  "weekly:peak=0.01,trough=0.002",
	cfg: exp.OpenConfig{
		Tenants: 8, TenantSkew: 1, PriorityLevels: 2, DeadlineFactors: []float64{12, 6},
		NMin: 1, NMax: 4, DurMin: 10, DurMax: 60, Workers: 64,
		Duration: 48 * time.Hour, Warmup: exp.WarmupAuto,
	},
	longHorizon: true,
	probeHours:  12,
}

var contendSpec = openSpec{
	topology: "synth:S=3,H=8",
	arrival:  "weekly:peak=0.1,trough=0.025,period=70m",
	cfg: exp.OpenConfig{
		Tenants: 3, TenantSkew: -1, PriorityLevels: 2, DeadlineFactors: []float64{6, 3},
		NMin: 4, NMax: 16, DurMin: 30, DurMax: 240, Workers: 8,
		QuotaRate: 8, QuotaBurst: 300, Preempt: true,
		Duration: 12 * time.Hour, Warmup: exp.WarmupAuto,
	},
	probeHours: 6,
}

// config returns the world options and the replay configuration.
func (s openSpec) config(seed int64) (exp.Options, exp.OpenConfig, error) {
	topo, err := grid.ParseTopologySpec(s.topology)
	if err != nil {
		return exp.Options{}, exp.OpenConfig{}, err
	}
	arr, err := workload.ParseArrivalSpec(s.arrival)
	if err != nil {
		return exp.Options{}, exp.OpenConfig{}, err
	}
	o := exp.DefaultOptions(seed)
	o.Topology = topo
	if s.longHorizon {
		o.FrontalPingInterval = 10 * time.Minute
		o.PeerAliveInterval = 30 * time.Minute
		o.PeerRefreshInterval = 2 * time.Hour
		o.PeerCacheCap = 2
		o.MaxPeersReturned = 512
	}
	cfg := s.cfg
	cfg.Base = topo
	cfg.Arrival = arr
	cfg.Strategies = []core.Strategy{core.Spread}
	return o, cfg, nil
}

// run times set-up on identically configured worlds, then the replay.
func (s openSpec) run(seed int64, tr *tracer) (*unit, error) {
	o, cfg, err := s.config(seed)
	if err != nil {
		return nil, err
	}
	u := newUnit(1)
	for i := 0; i < openSetups; i++ {
		w, err := u.boot(tr, o)
		if err != nil {
			return nil, err
		}
		w.Close()
	}
	var pt exp.OpenPoint
	u.RunS, err = tr.do("exp.RunOpen", func() (err error) {
		pt, err = exp.RunOpen(o, cfg, core.Spread)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("open replay: %w", err)
	}
	if pt.Completed+pt.Failed != pt.Measured || pt.Measured > pt.Submitted {
		return nil, fmt.Errorf("open replay breaks conservation: submitted %d, measured %d, completed %d, failed %d",
			pt.Submitted, pt.Measured, pt.Completed, pt.Failed)
	}
	u.Output = exp.OpenPointsCSV([]exp.OpenPoint{pt})
	u.Attempted, u.Completed = pt.Measured, pt.Completed
	u.Counters["sched.preemptions"] = float64(pt.Preemptions)
	u.Counters["sched.throttle_rate"] = pt.QuotaThrottleRate
	u.Counters["sched.refused"] = float64(pt.Failed)
	return u, nil
}

// probe boots one more identically configured world and lets it idle,
// one virtual hour per World.RunFor; its counters stand in for the
// replay's world, which RunOpen does not expose.
func (s openSpec) probe(seed int64, tr *tracer, u *unit) error {
	o, _, err := s.config(seed)
	if err != nil {
		return err
	}
	w := exp.NewWorld(o)
	if err := w.Boot(); err != nil {
		w.Close()
		return fmt.Errorf("probe boot: %w", err)
	}
	u.idle(tr, w, time.Hour, s.probeHours)
	u.retire(tr, w)
	return nil
}
