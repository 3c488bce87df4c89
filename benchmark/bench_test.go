package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hle/internal/figures"
	"hle/internal/stats"
)

// heldOutSeed is never used while tuning the benchmark; claims made with
// it are out-of-sample. The self-tests use it as the "other" seed.
const heldOutSeed = 1009

func tinyRun(t *testing.T, name string, seed int64, trace bool) *report {
	t.Helper()
	o := options{workload: name, seed: seed, trace: trace, out: t.TempDir(), sc: tinyScale()}
	if trace {
		// Long enough for the CPU profile to take samples.
		o.seconds = 1
	}
	rep, err := measure(o)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d\n%s", name, seed,
			rep.Correct, rep.Attempted, rep.Failed, strings.Join(rep.notes, "\n"))
	}
	return rep
}

// Each workload, run twice back to back with one seed, gives identical
// counters and digest; another seed changes them. The explore battery is
// exhaustive, so its results are the one thing a seed cannot change.
func TestDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a := tinyRun(t, name, 1, false)
			b := tinyRun(t, name, 1, false)
			if a.digest != b.digest || !reflect.DeepEqual(a.counts, b.counts) {
				t.Fatalf("same seed, different results:\n%s %v\n%s %v", a.digest, a.counts, b.digest, b.counts)
			}
			c := tinyRun(t, name, heldOutSeed, false)
			if name == "explore" {
				if c.digest != a.digest {
					t.Fatalf("explore digest depends on the seed: %s vs %s", a.digest, c.digest)
				}
				return
			}
			if c.digest == a.digest || reflect.DeepEqual(a.counts, c.counts) {
				t.Fatalf("seed %d gives the same results as seed 1 (%s)", heldOutSeed, a.digest)
			}
		})
	}
}

// Tracing is passive: a traced run reports the digest an untraced run
// does, its CPU shares sum to 100, obs attributes every tsx abort, and
// every layer the workload drives reports work. (At this size the CPU
// profile holds too few samples to say which layers show in it.)
func TestTracedRun(t *testing.T) {
	nonzero := map[string][]string{
		"avalanche": {"sim.grants", "tsx.begun", "tsx.committed", "core.attempts_per_op",
			"core.sim_ops_per_mcycle", "mem.forks", "mem.fork_s", "mem.checkpoint_s",
			"harness.points", "harness.point_s.p50", "obs.aborts.conflict-lock-line",
			"runtime.alloc_mb", "trace.overhead"},
		"explore": {"sim.grants", "explore.states", "explore.replays", "explore.forks",
			"explore.scratch_replays", "explore.cache_peak_bytes", "explore.states_per_s",
			"explore.config_s.p50", "runtime.alloc_mb", "trace.overhead"},
		"chaos-soak": {"sim.grants", "tsx.begun", "tsx.aborts.spurious", "chaos.soaks",
			"chaos.ops", "chaos.injected.aborts", "chaos.soak_s.p50", "obs.aborts.injected",
			"runtime.alloc_mb", "trace.overhead"},
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			plain := tinyRun(t, name, 1, false)
			traced := tinyRun(t, name, 1, true)
			if plain.digest != traced.digest {
				t.Fatalf("tracing changed the results: %s vs %s", plain.digest, traced.digest)
			}
			var sum float64
			for _, l := range shareLayers {
				sum += traced.Metrics["cpu_share."+l].Value
			}
			if sum < 99 || sum > 101 {
				t.Errorf("cpu_share.* sums to %.2f", sum)
			}
			var obsSum, tsxSum float64
			for k, m := range traced.Metrics {
				switch {
				case strings.HasPrefix(k, "obs.aborts."):
					obsSum += m.Value
				case strings.HasPrefix(k, "tsx.aborts."):
					tsxSum += m.Value
				}
			}
			if name != "explore" && obsSum != tsxSum {
				t.Errorf("obs attributes %.0f aborts, tsx counted %.0f", obsSum, tsxSum)
			}
			for _, k := range nonzero[name] {
				if traced.Metrics[k].Value <= 0 {
					t.Errorf("%s = %v, want > 0", k, traced.Metrics[k].Value)
				}
			}
		})
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// The output names every metric BENCHMARK.json lists, with its unit, and
// nothing else; the last line is the result object.
func TestOutputMatchesSchema(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, trace := range []bool{false, true} {
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		got := map[string]string{}
		for _, d := range defs {
			got[d.name] = d.unit
		}
		if !reflect.DeepEqual(got, want[trace]) {
			t.Errorf("trace=%v: benchmark defines %v, BENCHMARK.json lists %v", trace, got, want[trace])
		}
		for _, name := range workloadNames {
			rep := tinyRun(t, name, 1, trace)
			line, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct   *bool             `json:"correct"`
				Attempted *int              `json:"attempted"`
				Failed    *int              `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(string(line)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&out); err != nil || out.Correct == nil || out.Attempted == nil || out.Failed == nil {
				t.Fatalf("%s: result line %s: %v", name, line, err)
			}
			units := map[string]string{}
			for k, m := range out.Metrics {
				units[k] = m.Unit
			}
			if !reflect.DeepEqual(units, want[trace]) {
				t.Errorf("%s trace=%v: printed %v, want %v", name, trace, units, want[trace])
			}
		}
	}
}

// failing is a workload whose ops panic, fail a check, or succeed.
type failing struct{}

func (failing) setup(int64, *tracer) map[string]float64 { return nil }
func (failing) setupBatch() int                         { return 1 }
func (failing) reset()                                  {}
func (failing) numOps() int                             { return 3 }
func (failing) label(i int) string                      { return []string{"panics", "fails", "passes"}[i] }

func (failing) run(i int, sw *stopwatch, _ *tracer, _ bool) (opResult, error) {
	sw.start()
	defer sw.stop()
	switch i {
	case 0:
		panic("boom")
	case 1:
		return newOpResult(i, "fails"), errors.New("check failed")
	}
	return newOpResult(i, "passes"), nil
}

// A failing op is counted and named, and the run still reports every
// metric.
func TestFailuresAreCountedNotFatal(t *testing.T) {
	rep, err := measureWorkload(failing{}, options{workload: "failing", seed: 1, out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Attempted != 3 || rep.Failed != 2 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want false 3 2", rep.Correct, rep.Attempted, rep.Failed)
	}
	for _, d := range endToEnd {
		if _, ok := rep.Metrics[d.name]; !ok {
			t.Errorf("metric %s missing after failures", d.name)
		}
	}
}

// Every op of a workload has its own label, so a FAILED line names the op.
func TestLabelsAreUnique(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, fullScale())
		if err != nil {
			t.Fatal(err)
		}
		w.setup(1, nil)
		seen := map[string]int{}
		for i := 0; i < w.numOps(); i++ {
			l := w.label(i)
			if j, ok := seen[l]; ok {
				t.Errorf("%s: ops %d and %d are both labelled %q", name, j, i, l)
			}
			seen[l] = i
		}
	}
}

// At seed 1 the avalanche workload's points are Fig 3.1's quick points:
// the figure's three tables, recomputed from the benchmark's points, match
// what the figure generator prints.
func TestAvalancheIsFig31(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Fig 3.1 twice")
	}
	a := &avalanche{sc: fullScale()}
	a.setup(1, nil)
	type pt struct{ thr, apo, nsf float64 }
	pts := make([]pt, a.numOps())
	for i := range pts {
		var sw stopwatch
		r, err := a.run(i, &sw, nil, false)
		if err != nil {
			t.Fatalf("%s: %v", a.label(i), err)
		}
		c := r.counts
		pts[i] = pt{c["core.sim_ops_per_mcycle"], c["core.attempts"] / c["core.ops"], c["core.nonspec"] / c["core.ops"]}
	}
	tables := figures.Fig31(figures.Options{Quick: true})
	for gi, size := range a.sc.treeSizes {
		p := pts[gi*4 : gi*4+4] // Standard TTAS, HLE TTAS, Standard MCS, HLE MCS
		want := [][]string{
			{stats.SizeLabel(size), stats.F2(p[1].thr / p[0].thr), stats.F2(p[3].thr / p[2].thr)},
			{stats.SizeLabel(size), stats.F2(p[1].apo), stats.F2(p[3].apo)},
			{stats.SizeLabel(size), stats.F3(p[1].nsf), stats.F3(p[3].nsf)},
		}
		for ti, tb := range tables {
			if got := tb.Rows[gi]; !reflect.DeepEqual(got, want[ti]) {
				t.Errorf("%s row %d: figure %v, benchmark %v", tb.Title, gi, got, want[ti])
			}
		}
	}
}

func TestSummarizeTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	ts := summarize(xs)
	// p90 is the 90th of 100 samples: ten lie beyond it.
	if ts.n != 100 || ts.p50 != 50.5 || ts.tailPct != 90 || ts.tail != 90 {
		t.Fatalf("got %+v", ts)
	}
	if ts := summarize(xs[:10]); ts.tailPct != 50 || ts.tail != ts.p50 {
		t.Fatalf("10 samples: got %+v, want the median only", ts)
	}
}

func TestClassify(t *testing.T) {
	for fn, want := range map[string]string{
		"hle/internal/sim.(*sched).pick":                     "sim",
		"hle/internal/tsx.(*Thread).Load":                    "tsx",
		"hle/internal/adapt.(*Controller).Observe":           "hle_other",
		"runtime.casgstatus":                                 "runtime.sched",
		"runtime.chanrecv1":                                  "runtime.sched",
		"runtime.scanobject":                                 "runtime.gc",
		"runtime.mallocgc":                                   "runtime.gc",
		"runtime.memmove":                                    "runtime.copy",
		"runtime.memclrNoHeapPointers":                       "runtime.copy",
		"runtime.(*unwinder).next":                           "runtime.other",
		"internal/runtime/atomic.(*Uint32).Load":             "runtime.sched",
		"gogo":                                               "runtime.sched",
		"math/rand.(*rngSource).Uint64":                      "stdlib",
		"slices.Clone[go.shape.[]uint64,go.shape.uint64]":    "stdlib",
		"main.runPass":                                       "bench",
		"hle/internal/explore.(*replayer).Pick":              "explore",
		"hle/internal/harness.(*Watchdog).Check":             "harness",
		"sync.(*Mutex).Lock":                                 "stdlib",
		"runtime/pprof.(*profileBuilder).appendLocsForStack": "stdlib",
	} {
		if got := classify(fn); got != want {
			t.Errorf("classify(%q) = %s, want %s", fn, got, want)
		}
	}
}
