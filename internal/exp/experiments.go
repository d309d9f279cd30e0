package exp

import (
	"fmt"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/mpd"
	"p2pmpi/internal/nas"
)

// SitePoint is one x-value of Figures 2 and 3: where the processes of an
// n-process request landed.
type SitePoint struct {
	N           int
	HostsBySite map[string]int
	CoresBySite map[string]int // "allocated cores" = mapped processes
}

// TimePoint is one x-value of Figure 4.
type TimePoint struct {
	N        int
	Strategy core.Strategy
	Seconds  float64
}

// CoAllocationSweep reproduces Figure 2 (strategy = Concentrate) or
// Figure 3 (strategy = Spread): it submits the hostname program for
// n = 100..600 step 50 against a booted world and records the per-site
// allocation of every run.
func CoAllocationSweep(w *World, strategy core.Strategy, ns []int) ([]SitePoint, error) {
	if ns == nil {
		ns = DefaultFig23Ns()
	}
	var out []SitePoint
	for _, n := range ns {
		res, err := w.Submit(mpd.JobSpec{
			Program:  "hostname",
			N:        n,
			R:        1,
			Strategy: strategy,
			Timeout:  10 * time.Minute,
		})
		if err != nil {
			return out, fmt.Errorf("n=%d: %w", n, err)
		}
		if f := res.Failures(); f > 0 {
			return out, fmt.Errorf("n=%d: %d slots failed", n, f)
		}
		out = append(out, SitePoint{
			N:           n,
			HostsBySite: res.Assignment.HostsBySite(),
			CoresBySite: res.Assignment.ProcsBySite(),
		})
	}
	return out, nil
}

// DefaultFig23Ns returns the paper's x-axis: 100..600 step 50.
func DefaultFig23Ns() []int {
	var ns []int
	for n := 100; n <= 600; n += 50 {
		ns = append(ns, n)
	}
	return ns
}

// DefaultFig4EPNs returns the EP process counts of Figure 4 (left).
func DefaultFig4EPNs() []int { return []int{32, 64, 128, 256, 512} }

// DefaultFig4ISNs returns the IS process counts of Figure 4 (right).
func DefaultFig4ISNs() []int { return []int{32, 64, 128} }

// NASSweep reproduces one curve of Figure 4: the named model program
// under one strategy across process counts. Each run reports the
// maximum process time (the paper's "Total time").
func NASSweep(w *World, program string, strategy core.Strategy, ns []int) ([]TimePoint, error) {
	var out []TimePoint
	for _, n := range ns {
		res, err := w.Submit(mpd.JobSpec{
			Program:  program,
			N:        n,
			R:        1,
			Strategy: strategy,
			Timeout:  30 * time.Minute,
		})
		if err != nil {
			return out, fmt.Errorf("%s n=%d: %w", program, n, err)
		}
		if f := res.Failures(); f > 0 {
			return out, fmt.Errorf("%s n=%d: %d slots failed", program, n, f)
		}
		raw, ok := res.OutputOf(0, 0)
		if !ok {
			return out, fmt.Errorf("%s n=%d: rank 0 reported nothing", program, n)
		}
		d, err := nas.ParseModelOutput(raw)
		if err != nil {
			return out, err
		}
		out = append(out, TimePoint{N: n, Strategy: strategy, Seconds: d.Seconds()})
	}
	return out, nil
}

// Fig2 runs the concentrate co-allocation sweep on a fresh world.
func Fig2(opts Options, ns []int) ([]SitePoint, error) { return fig23(opts, core.Concentrate, ns) }

// Fig3 runs the spread co-allocation sweep on a fresh world.
func Fig3(opts Options, ns []int) ([]SitePoint, error) { return fig23(opts, core.Spread, ns) }

func fig23(opts Options, strategy core.Strategy, ns []int) ([]SitePoint, error) {
	w := NewWorld(opts)
	defer w.Close()
	if err := w.Boot(); err != nil {
		return nil, err
	}
	return CoAllocationSweep(w, strategy, ns)
}

// Fig4EP runs both strategies of the EP benchmark (Figure 4, left)
// across a pool of up to `workers` OS threads (one world per strategy).
func Fig4EP(opts Options, ns []int, workers int) ([]TimePoint, error) {
	if ns == nil {
		ns = DefaultFig4EPNs()
	}
	return fig4("ep-model-B", opts, ns, workers)
}

// Fig4IS runs both strategies of the IS benchmark (Figure 4, right).
func Fig4IS(opts Options, ns []int, workers int) ([]TimePoint, error) {
	if ns == nil {
		ns = DefaultFig4ISNs()
	}
	return fig4("is-model-B", opts, ns, workers)
}

// fig4 measures both strategy curves. Each strategy owns an independent
// world, so the two can run in parallel on separate OS threads; the
// output is assembled in fixed strategy order and is byte-identical to
// a sequential (workers = 1) run.
func fig4(program string, opts Options, ns []int, workers int) ([]TimePoint, error) {
	strategies := []core.Strategy{core.Concentrate, core.Spread}
	return sweep(strategies, workers, func(st core.Strategy) ([]TimePoint, error) {
		w := NewWorld(opts)
		defer w.Close()
		if err := w.Boot(); err != nil {
			return nil, err
		}
		return NASSweep(w, program, st, ns)
	})
}

// Table1Row is one line of the paper's Table 1.
type Table1Row struct {
	Site    string
	Cluster string
	CPU     string
	Nodes   int
	CPUs    int
	Cores   int
}

// Table1 regenerates the resource inventory from the grid model.
func Table1() []Table1Row {
	g := grid.Grid5000()
	rows := make([]Table1Row, 0, len(g.Clusters))
	for _, c := range g.Clusters {
		rows = append(rows, Table1Row{
			Site: c.Site, Cluster: c.Name, CPU: c.CPU,
			Nodes: c.Nodes, CPUs: c.CPUs, Cores: c.Cores,
		})
	}
	return rows
}
