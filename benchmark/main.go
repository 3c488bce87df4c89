// Command hle-perf is the repository's benchmark: it drives the simulator
// through its public functions on one named workload, checks the
// workload's output, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (host time, CPU,
// set-up time, peak memory). With -trace 1 the run also records spans and
// a CPU profile and reports the per-layer metrics. See RATIONALE.md.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash benchmark/run.sh --workload avalanche --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric. The lists below are the schema that
// BENCHMARK.json records; a self-test keeps the two identical.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// opTiming names each workload's per-op timing metrics.
var opTiming = map[string]string{
	"avalanche":  "harness.point_s",
	"explore":    "explore.config_s",
	"chaos-soak": "chaos.soak_s",
}

var perLayer = func() []metricDef {
	d := []metricDef{
		{"sim.grants", "count"},
		{"sim.ns_per_grant", "ns"},
		{"tsx.begun", "count"},
		{"tsx.committed", "count"},
		{"tsx.commit_ratio", "ratio"},
	}
	for _, c := range []string{"conflict", "capacity-write", "capacity-read", "explicit",
		"spurious", "pause", "hle-restore", "nested", "subscription"} {
		d = append(d, metricDef{"tsx.aborts." + c, "count"})
	}
	d = append(d,
		metricDef{"core.attempts_per_op", "ratio"},
		metricDef{"core.nonspec_frac", "ratio"},
		metricDef{"core.sim_ops_per_mcycle", "ops/Mcycle"},
		metricDef{"mem.forks", "count"},
		metricDef{"mem.fork_s", "s"},
		metricDef{"mem.checkpoint_s", "s"},
		metricDef{"harness.points", "count"},
	)
	timing := func(prefix string) {
		d = append(d,
			metricDef{prefix + ".p50", "s"},
			metricDef{prefix + ".tail", "s"},
			metricDef{prefix + ".tail_pct", "percentile"},
			metricDef{prefix + ".n", "count"},
		)
	}
	timing("harness.point_s")
	d = append(d,
		metricDef{"explore.configs", "count"},
		metricDef{"explore.states", "count"},
		metricDef{"explore.replays", "count"},
		metricDef{"explore.forks", "count"},
		metricDef{"explore.scratch_replays", "count"},
		metricDef{"explore.fork_rate", "ratio"},
		metricDef{"explore.spec_wasted", "count"},
		metricDef{"explore.cache_peak_bytes", "bytes"},
		metricDef{"explore.states_per_s", "1/s"},
	)
	timing("explore.config_s")
	d = append(d,
		metricDef{"chaos.soaks", "count"},
		metricDef{"chaos.ops", "count"},
		metricDef{"chaos.injected.aborts", "count"},
		metricDef{"chaos.injected.stalls", "count"},
		metricDef{"chaos.injected.stall_cycles", "cycles"},
		metricDef{"chaos.injected.squeezes", "count"},
		metricDef{"chaos.injected.skews", "count"},
		metricDef{"chaos.trips", "count"},
	)
	timing("chaos.soak_s")
	d = append(d,
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_s", "s"},
	)
	for _, l := range shareLayers {
		d = append(d, metricDef{"cpu_share." + l, "%"})
	}
	for _, c := range []string{"conflict-lock-line", "conflict-data-line", "capacity-write",
		"capacity-read", "spurious", "injected", "pause", "explicit", "hle-restore",
		"nested", "subscription"} {
		d = append(d, metricDef{"obs.aborts." + c, "count"})
	}
	return append(d, metricDef{"trace.overhead", "ratio"})
}()

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	sc       scale
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's result. The exported fields are the JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	digest string
	counts map[string]float64 // exact counts of one pass
	notes  []string           // human-readable lines printed before the JSON
}

// passResult is one pass over every op of a workload.
type passResult struct {
	wall      time.Duration // timed sections only
	grants    uint64
	opWall    []float64 // per op, in run order
	opCPU     []float64
	digest    string
	counts    map[string]float64
	times     map[string]float64
	attempted int
	failed    int
	allocMB   float64
	gcCycles  float64
	gcPauseS  float64
}

// runOp runs one op, turning a panic anywhere below it into a failed op.
func runOp(w workload, i int, sw *stopwatch, tr *tracer, traced bool) (r opResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			sw.stop()
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return w.run(i, sw, tr, traced)
}

func runPass(w workload, name string, tr *tracer, traced bool) passResult {
	pr := passResult{counts: map[string]float64{}, times: map[string]float64{}}
	hashes := make([]uint64, w.numOps())
	poisoned := false
	// No collection is forced inside a pass: an op pays for the
	// collections its allocation triggers, wherever they land, and the
	// per-op median over passes absorbs where that is.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < w.numOps(); i++ {
		var sw stopwatch
		r, err := runOp(w, i, &sw, tr, traced)
		pr.attempted++
		pr.wall += sw.wall
		pr.grants += sw.grants
		pr.opWall = append(pr.opWall, sw.wall.Seconds())
		pr.opCPU = append(pr.opCPU, sw.cpu.Seconds())
		if err != nil {
			pr.failed++
			fmt.Fprintf(os.Stderr, "FAILED %s op %d (%s): %v\n", name, i, w.label(i), err)
		}
		if r.counts == nil {
			// The op panicked before reporting anything.
			poisoned = true
			continue
		}
		hashes[r.index] = r.hash
		for k, v := range r.counts {
			if strings.HasSuffix(k, "_peak_bytes") {
				pr.counts[k] = math.Max(pr.counts[k], v)
			} else {
				pr.counts[k] += v
			}
		}
		for k, v := range r.times {
			pr.times[k] += v
		}
	}
	runtime.ReadMemStats(&ms1)
	pr.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	pr.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	pr.gcPauseS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	d := newDigest()
	for i, h := range hashes {
		d.u64(uint64(i), h)
	}
	pr.digest = d.sum()
	if poisoned {
		pr.digest = "incomplete"
	}
	return pr
}

// setupSamples is how many set-up samples a run takes before each pass.
const setupSamples = 3

// setupTimer rebuilds a workload's inputs and times the builds. The
// builds are spread over the run, a few before each pass, so set-up time
// is sampled under the same host conditions as the passes rather than in
// one burst at the start.
type setupTimer struct {
	w       workload
	seed    int64
	tr      *tracer
	samples []float64            // seconds per build
	layers  map[string][]float64 // named layers' seconds per build
}

// round takes setupSamples samples, each a block of setupBatch builds
// timed together, and leaves the last build in place. Every block starts
// from a collected heap, and so does the pass after the round.
func (s *setupTimer) round() {
	n := s.w.setupBatch()
	for k := 0; k < setupSamples; k++ {
		s.w.reset()
		runtime.GC()
		lt := map[string]float64{}
		t0 := time.Now()
		end := s.tr.begin("bench", "setup")
		for b := 0; b < n; b++ {
			for name, v := range s.w.setup(s.seed, s.tr) {
				lt[name] += v
			}
		}
		end()
		s.samples = append(s.samples, time.Since(t0).Seconds()/float64(n))
		for name, v := range lt {
			s.layers[name] = append(s.layers[name], v/float64(n))
		}
	}
	runtime.GC()
}

// runPasses repeats set-up rounds and passes until the next pair would
// overrun budget; it always runs at least one.
func runPasses(w workload, name string, budget time.Duration, st *setupTimer, tr *tracer, traced bool) []passResult {
	start := time.Now()
	var passes []passResult
	var last time.Duration
	for len(passes) == 0 || time.Since(start)+last <= budget {
		t0 := time.Now()
		st.round()
		label := "pass"
		if traced {
			label = "traced pass"
		}
		end := tr.begin("bench", fmt.Sprintf("%s %d", label, len(passes)+1))
		passes = append(passes, runPass(w, name, tr, traced))
		end()
		last = time.Since(t0)
	}
	return passes
}

// opMedianSum is the pass time with noise filtered op by op: for each op,
// the median of its time over the passes, summed over the ops. A burst of
// host noise then costs only the ops it hit, in the passes it hit, and
// drops out of the median unless it hits the same op in most passes.
func opMedianSum(passes []passResult, f func(p passResult) []float64) float64 {
	var sum float64
	xs := make([]float64, len(passes))
	for i := range f(passes[0]) {
		for k, p := range passes {
			xs[k] = f(p)[i]
		}
		sum += median(xs)
	}
	return sum
}

func medianOf(passes []passResult, f func(p passResult) float64) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return median(xs)
}

// measure runs one workload and builds its report.
func measure(o options) (*report, error) {
	w, err := newWorkload(o.workload, o.sc)
	if err != nil {
		return nil, err
	}
	return measureWorkload(w, o)
}

func measureWorkload(w workload, o options) (*report, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	endRun := tr.begin("bench", "run "+o.workload)
	st := &setupTimer{w: w, seed: o.seed, tr: tr, layers: map[string][]float64{}}
	budget := time.Duration(o.seconds * float64(time.Second))
	var plain, traced []passResult
	var shares map[string]float64
	if !o.trace {
		plain = runPasses(w, o.workload, budget, st, nil, false)
	} else {
		// Half the time untraced, for host timings and the overhead
		// baseline; half traced, with spans, obs and a CPU profile.
		// The untraced passes record no spans of their own; one span
		// marks where they ran.
		end := tr.begin("untraced", "untraced passes")
		plain = runPasses(w, o.workload, budget/2, st, nil, false)
		end()
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, fmt.Errorf("create output directory: %w", err)
		}
		base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
		f, err := os.Create(base + "-cpu.pprof")
		if err != nil {
			return nil, fmt.Errorf("create CPU profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
		traced = runPasses(w, o.workload, budget/2, st, tr, true)
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("write CPU profile: %w", err)
		}
		end = tr.begin("bench", "go tool pprof")
		shares, err = cpuShares(base + "-cpu.pprof")
		end()
		if err != nil {
			return nil, err
		}
		endRun()
		if err := tr.write(base + "-spans.json"); err != nil {
			return nil, err
		}
	}

	rep := &report{Correct: true, Metrics: map[string]metric{}}
	all := append(append([]passResult(nil), plain...), traced...)
	rep.digest = all[0].digest
	for i, p := range all {
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		if p.digest != rep.digest || p.grants != all[0].grants {
			rep.Correct = false
			rep.notes = append(rep.notes, fmt.Sprintf(
				"NOT DETERMINISTIC: pass %d digest %s grants %d, pass 1 digest %s grants %d",
				i+1, p.digest, p.grants, rep.digest, all[0].grants))
		}
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	rep.counts = all[len(all)-1].counts
	wall := opMedianSum(plain, func(p passResult) []float64 { return p.opWall })

	var opWalls []float64
	for _, p := range plain {
		opWalls = append(opWalls, p.opWall...)
	}
	ops := summarize(opWalls)
	rep.notes = append(rep.notes,
		fmt.Sprintf("workload %s seed %d: %d passes of %d ops, %d ops attempted, %d failed",
			o.workload, o.seed, len(plain)+len(traced), w.numOps(), rep.Attempted, rep.Failed),
		fmt.Sprintf("sim_digest %s", rep.digest),
		fmt.Sprintf("pass wall: %s; passes %s", summarize(passWalls(plain)), fmtSeconds(passWalls(plain))),
		fmt.Sprintf("op wall: %s", ops),
		fmt.Sprintf("setup: %s", summarize(st.samples)))

	if !o.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, fmt.Errorf("read peak RSS: %w", err)
		}
		set := func(name string, v float64) { rep.Metrics[name] = metric{v, unitOf(endToEnd, name)} }
		set("wall_s", wall)
		set("cpu_s", opMedianSum(plain, func(p passResult) []float64 { return p.opCPU }))
		set("setup_s", median(st.samples))
		set("peak_rss_mb", rss)
		return rep, nil
	}

	for _, m := range perLayer {
		rep.Metrics[m.name] = metric{0, m.unit}
	}
	set := func(name string, v float64) {
		if _, ok := rep.Metrics[name]; !ok {
			panic("benchmark: unlisted per-layer metric " + name)
		}
		rep.Metrics[name] = metric{v, unitOf(perLayer, name)}
	}
	c := rep.counts
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for _, m := range perLayer {
		if v, ok := c[m.name]; ok {
			set(m.name, v)
		}
	}
	set("sim.grants", float64(plain[0].grants))
	set("sim.ns_per_grant", ratio(wall*1e9, float64(plain[0].grants)))
	set("tsx.commit_ratio", ratio(c["tsx.committed"], c["tsx.begun"]))
	set("core.attempts_per_op", ratio(c["core.attempts"], c["core.ops"]))
	set("core.nonspec_frac", ratio(c["core.nonspec"], c["core.ops"]))
	set("mem.fork_s", medianOf(plain, func(p passResult) float64 { return p.times["mem.fork_s"] }))
	set("mem.checkpoint_s", median(st.layers["mem.checkpoint_s"]))
	prefix := opTiming[o.workload]
	set(prefix+".p50", ops.p50)
	set(prefix+".tail", ops.tail)
	set(prefix+".tail_pct", ops.tailPct)
	set(prefix+".n", float64(ops.n))
	set("explore.fork_rate", ratio(c["explore.forks"], c["explore.replays"]))
	set("explore.states_per_s", ratio(c["explore.states"], wall))
	set("runtime.alloc_mb", medianOf(plain, func(p passResult) float64 { return p.allocMB }))
	set("runtime.gc_cycles", medianOf(plain, func(p passResult) float64 { return p.gcCycles }))
	set("runtime.gc_pause_s", medianOf(plain, func(p passResult) float64 { return p.gcPauseS }))
	var shareSum float64
	for l, v := range shares {
		set("cpu_share."+l, v)
		shareSum += v
	}
	tracedWall := opMedianSum(traced, func(p passResult) []float64 { return p.opWall })
	set("trace.overhead", ratio(tracedWall, wall))

	// Consistency of the trace: the CPU fold covers the whole profile,
	// and the obs attribution accounts for every engine abort.
	check := func(ok bool, format string, args ...any) {
		if !ok {
			rep.Correct = false
			format = "INCONSISTENT: " + format
		}
		rep.notes = append(rep.notes, fmt.Sprintf(format, args...))
	}
	check(math.Abs(shareSum-100) <= 1, "cpu_share.* sums to %.2f%%", shareSum)
	if c["obs.profiles"] > 0 {
		var obsSum, tsxSum float64
		for k, v := range c {
			switch {
			case strings.HasPrefix(k, "obs.aborts."):
				obsSum += v
			case strings.HasPrefix(k, "tsx.aborts."):
				tsxSum += v
			}
		}
		check(obsSum == tsxSum, "obs attributes %.0f aborts, tsx counted %.0f", obsSum, tsxSum)
	}
	return rep, nil
}

func passWalls(ps []passResult) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = p.wall.Seconds()
	}
	return xs
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "] s"
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("benchmark: unknown metric " + name)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "trace"), "directory for the CPU profile and spans of a traced run")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	o.sc = fullScale()
	rep, err := measure(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hle-perf:", err)
		os.Exit(1)
	}
	for _, l := range rep.notes {
		fmt.Println(l)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("%-36s %.6g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hle-perf: marshal result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
