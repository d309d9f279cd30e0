package main

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"p2pmpi/internal/exp"
)

func TestCPUBucket(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "p2pmpi/internal/wire.Encode", "p2pmpi/internal/overlay.(*Supernode).serve"}, "wire"},
		{[]string{"sort.Sort", "p2pmpi/internal/vtime.(*Scheduler).RunFor.func1", "main.main"}, "vtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "goruntime"},
		{[]string{"compress/flate.(*compressor).deflate", "runtime/pprof.profileWriter"}, "other"},
		{[]string{"runtime._GC"}, "gc"},
	}
	for _, c := range cases {
		if got := cpuBucket(c.frames); got != c.want {
			t.Errorf("cpuBucket(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestCPUByBucketProfile profiles a small simulated world and checks
// that the decoded buckets cover the profile and name program modules.
func TestCPUByBucketProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	tr := newTracer(true)
	u := newUnit(1)
	o, _, err := tinyOpen.config(7)
	if err != nil {
		t.Fatal(err)
	}
	w, err := u.boot(tr, o)
	if err != nil {
		pprof.StopCPUProfile()
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < time.Second; {
		w.RunFor(time.Hour)
	}
	u.retire(tr, w)
	pprof.StopCPUProfile()

	cpu, err := cpuByBucket(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, internal float64
	for b, v := range cpu {
		total += v
		if b != "gc" && b != "goruntime" && b != "other" {
			internal += v
		}
	}
	if total == 0 || internal == 0 {
		t.Fatalf("buckets %v: want CPU charged to program modules", cpu)
	}
	if cpu["vtime"] == 0 {
		t.Errorf("buckets %v: an idle world should spend CPU in vtime", cpu)
	}
	for _, name := range []string{"setup", "exp.NewWorld", "World.Boot", "World.Close"} {
		found := false
		for _, s := range spanTotals(tr.spans) {
			found = found || s.Name == name
		}
		if !found {
			t.Errorf("no %s span recorded", name)
		}
	}
}

// tinyOpen is a seconds-long open replay on the same code path as week
// and contend.
var tinyOpen = openSpec{
	topology: "synth:S=2,H=4",
	arrival:  "poisson:rate=0.02",
	cfg: exp.OpenConfig{
		Tenants: 2, PriorityLevels: 2, NMin: 1, NMax: 4, DurMin: 10, DurMax: 60,
		Duration: 30 * time.Minute, Warmup: exp.WarmupAuto,
	},
	probeHours: 2,
}

func TestOpenWorkloadSmoke(t *testing.T) {
	tr := newTracer(true)
	u, err := tinyOpen.run(3, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Setups) != openSetups || u.RunS <= 0 || u.Attempted < 1 || u.Completed > u.Attempted {
		t.Fatalf("unit %+v", u)
	}
	again, err := tinyOpen.run(3, newTracer(false))
	if err != nil {
		t.Fatal(err)
	}
	if again.Output != u.Output {
		t.Fatalf("same seed, different output:\n%s\n%s", u.Output, again.Output)
	}
	if err := tinyOpen.probe(3, tr, u); err != nil {
		t.Fatal(err)
	}
	if u.Counters["vtime.ms_per_vh"] <= 0 || u.Counters["mpd.pings"] <= 0 {
		t.Fatalf("probe counters %v", u.Counters)
	}
}

// TestReferences checks that every workload has the references of the
// executions an untraced seed-42 run takes, and that the paper's is
// `gridbench -exp all -format csv` at seed 42.
func TestReferences(t *testing.T) {
	for _, w := range workloads {
		for i := 0; i < max(1, w.minRuns); i++ {
			name := fmt.Sprintf("%s.%d.csv", w.name, execSeed(42, i))
			if _, err := os.Stat(filepath.Join("ref", name)); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
	paper, err := os.ReadFile(filepath.Join("ref", "paper.42.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%x", md5.Sum(paper)); sum != "d241ab4cbb1b5af9b232c8938d77a017" {
		t.Errorf("paper reference md5 %s", sum)
	}
}

func TestStats(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9); got != 10 {
		t.Errorf("p90 = %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	if got := slope([]float64{142, 324, 506, 688}); math.Abs(got-182) > 1e-9 {
		t.Errorf("slope = %v", got)
	}
}
