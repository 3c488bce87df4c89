package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"hle/internal/chaos"
	"hle/internal/core"
	"hle/internal/explore"
	"hle/internal/harness"
	"hle/internal/obs"
	"hle/internal/tsx"
)

// workload is one named input set the benchmark drives through the
// simulator's public functions.
type workload interface {
	// setup builds the inputs for seed, replacing any earlier build. It
	// is what setup_s times; the benchmark rebuilds the inputs before
	// every pass. It returns the host seconds spent in named layers of
	// the build.
	setup(seed int64, tr *tracer) map[string]float64
	// reset drops the inputs, so the next build does not run with the
	// previous one still live.
	reset()
	// setupBatch is how many builds one set-up sample times together, so
	// that a sample lasts milliseconds, not microseconds.
	setupBatch() int
	// numOps is the number of ops in one pass; every pass runs the same
	// ops on the same inputs, so every pass must give the same results.
	numOps() int
	// label names op i in reports.
	label(i int) string
	// run executes op i of a pass. It times the sections that count with
	// sw and checks the op's output after stopping it. traced asks for
	// per-layer observation (obs collectors, engine event counts).
	run(i int, sw *stopwatch, tr *tracer, traced bool) (opResult, error)
}

// opResult is what one op reports.
type opResult struct {
	// index is the op's canonical position, which orders the digest
	// whatever order the pass ran ops in.
	index int
	label string
	// hash is a digest of the op's exact simulated result.
	hash uint64
	// counts are exact per-layer counts; times are host seconds.
	counts map[string]float64
	times  map[string]float64
}

func newOpResult(index int, label string) opResult {
	return opResult{index: index, label: label,
		counts: make(map[string]float64), times: make(map[string]float64)}
}

// scale sizes the workloads: fullScale is what the benchmark measures,
// tinyScale what its self-tests run.
type scale struct {
	treeSizes   []int
	budget      uint64
	exploreCfgs int // 0: the whole quick battery
	soakReps    int
	soakThreads int
	soakOps     int
}

func fullScale() scale {
	return scale{
		treeSizes:   []int{8, 128, 2048, 32768},
		budget:      500_000,
		soakReps:    20,
		soakThreads: 8,
		soakOps:     60,
	}
}

func tinyScale() scale {
	return scale{
		treeSizes:   []int{8, 128},
		budget:      20_000,
		exploreCfgs: 3,
		soakReps:    1,
		soakThreads: 4,
		soakOps:     10,
	}
}

var workloadNames = []string{"avalanche", "explore", "chaos-soak"}

func newWorkload(name string, sc scale) (workload, error) {
	switch name {
	case "avalanche":
		return &avalanche{sc: sc}, nil
	case "explore":
		return &exploreBattery{sc: sc}, nil
	case "chaos-soak":
		return &chaosSoak{sc: sc}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// hashStats folds a tsx.Stats into a digest.
func hashStats(d *digest, s tsx.Stats) {
	d.u64(s.Begun, s.Committed, s.CommittedReadLines, s.CommittedWriteLines, s.CommittedAccesses)
	d.u64(s.Aborted[:]...)
}

// addTSX adds engine transaction counts to an op's counts.
func addTSX(c map[string]float64, s tsx.Stats) {
	c["tsx.begun"] += float64(s.Begun)
	c["tsx.committed"] += float64(s.Committed)
	for i, n := range s.Aborted {
		if tsx.Cause(i) != tsx.CauseNone {
			c["tsx.aborts."+tsx.Cause(i).String()] += float64(n)
		}
	}
}

// addObs adds an obs profile's abort classes to an op's counts.
func addObs(c map[string]float64, p *obs.Profile) {
	c["obs.profiles"]++
	for cl := obs.Class(0); int(cl) < obs.NumClasses; cl++ {
		c["obs.aborts."+cl.String()] += float64(p.Cause(cl))
	}
}

// avalanche is Fig 3.1 at quick scale: {Standard, HLE} × {TTAS, MCS} on a
// red-black tree of each size, 10/10/80, 8 simulated threads, each point a
// budget-based run forked from one populated checkpoint per size. At
// seed 1 its points are exactly the figure's.
type avalanche struct {
	sc    scale
	seed  int64
	trees []avalancheTree
}

type avalancheTree struct {
	size int
	cp   *tsx.Checkpoint
	w    *harness.RBTree
}

var avalancheSpecs = []harness.SchemeSpec{
	{Scheme: "Standard", Lock: "TTAS"},
	{Scheme: "HLE", Lock: "TTAS"},
	{Scheme: "Standard", Lock: "MCS"},
	{Scheme: "HLE", Lock: "MCS"},
}

const avalancheThreads = 8

func (a *avalanche) setupBatch() int { return 1 }

func (a *avalanche) reset() { a.trees = nil }

func (a *avalanche) numOps() int { return len(a.sc.treeSizes) * len(avalancheSpecs) }

func (a *avalanche) label(i int) string {
	return fmt.Sprintf("size=%d %s", a.sc.treeSizes[i/len(avalancheSpecs)], avalancheSpecs[i%len(avalancheSpecs)])
}

func (a *avalanche) setup(seed int64, tr *tracer) map[string]float64 {
	times := map[string]float64{"mem.checkpoint_s": 0}
	a.seed = seed
	a.trees = nil
	for _, size := range a.sc.treeSizes {
		cfg := tsx.DefaultConfig(avalancheThreads)
		cfg.Seed = seed
		cfg.MemWords = size*16 + 1<<16
		end := tr.begin("tsx", "tsx.NewMachine")
		m := tsx.NewMachine(cfg)
		end()
		var w *harness.RBTree
		end = tr.begin("harness", fmt.Sprintf("harness.RBTree.Populate size=%d", size))
		m.RunOne(func(t *tsx.Thread) {
			w = harness.NewRBTree(t, size, harness.MixModerate)
			w.Populate(t)
		})
		end()
		t0 := time.Now()
		end = tr.begin("mem", "tsx.Machine.Checkpoint")
		cp := m.Checkpoint()
		end()
		times["mem.checkpoint_s"] += time.Since(t0).Seconds()
		a.trees = append(a.trees, avalancheTree{size: size, cp: cp, w: w})
	}
	return times
}

func (a *avalanche) run(i int, sw *stopwatch, tr *tracer, traced bool) (opResult, error) {
	gi, si := i/len(avalancheSpecs), i%len(avalancheSpecs)
	at := a.trees[gi]
	spec := avalancheSpecs[si]
	r := newOpResult(i, a.label(i))
	cfg := harness.Config{Threads: avalancheThreads, CycleBudget: a.sc.budget, Warmup: a.sc.budget}
	if traced {
		cfg.Profile = &obs.Options{}
	}

	sw.start()
	t0 := time.Now()
	end := tr.begin("mem", "tsx.FromCheckpoint")
	m := tsx.FromCheckpoint(at.cp)
	end()
	r.times["mem.fork_s"] = time.Since(t0).Seconds()
	m.Reseed(harness.DeriveSeed(a.seed, gi, si))
	var scheme core.Scheme
	end = tr.begin("core", "harness.SchemeSpec.Build")
	m.RunOne(func(t *tsx.Thread) { scheme = spec.Build(t) })
	end()
	end = tr.begin("harness", "harness.Run")
	res := harness.Run(m, scheme, at.w, cfg)
	end()
	sw.stop()

	r.counts["mem.forks"] = 1
	r.counts["harness.points"] = 1
	r.counts["core.ops"] = float64(res.Ops.Ops)
	r.counts["core.attempts"] = float64(res.Ops.Attempts)
	r.counts["core.nonspec"] = float64(res.Ops.NonSpec)
	r.counts["core.sim_ops_per_mcycle"] = res.Throughput
	addTSX(r.counts, res.TSX)
	if traced {
		addObs(r.counts, res.Profile)
	}

	d := newDigest()
	d.str(r.label)
	d.u64(res.Ops.Ops, res.Ops.Spec, res.Ops.NonSpec, res.Ops.Attempts, res.MaxClock,
		math.Float64bits(res.Throughput))
	hashStats(d, res.TSX)
	r.hash = d.h.Sum64()

	// Output checks: the point completed operations, its counters are
	// consistent, and the tree it mutated is still a valid red-black tree.
	switch {
	case res.Failure != nil:
		return r, fmt.Errorf("watchdog: %s", res.Failure.Error())
	case res.Ops.Ops == 0:
		return r, errors.New("no operations completed")
	case res.Ops.Spec+res.Ops.NonSpec != res.Ops.Ops:
		return r, fmt.Errorf("spec %d + non-spec %d != ops %d", res.Ops.Spec, res.Ops.NonSpec, res.Ops.Ops)
	case spec.Scheme == "Standard" && (res.Ops.Spec != 0 || res.Ops.Attempts != res.Ops.Ops):
		return r, fmt.Errorf("standard lock speculated: %+v", res.Ops)
	case res.TSX.Begun != res.TSX.Committed+res.TSX.TotalAborts():
		return r, fmt.Errorf("tsx begun %d != committed %d + aborted %d",
			res.TSX.Begun, res.TSX.Committed, res.TSX.TotalAborts())
	}
	if traced && res.Profile.CauseSum() != res.TSX.TotalAborts() {
		return r, fmt.Errorf("obs attributes %d aborts, tsx counted %d",
			res.Profile.CauseSum(), res.TSX.TotalAborts())
	}
	end = tr.begin("rbtree", "rbtree.Tree.Validate")
	m.RunOne(func(t *tsx.Thread) { at.w.Tree().Validate(t) })
	end()
	return r, nil
}

// exploreBattery is the quick model-checking battery at one host worker.
// The search is exhaustive, so its results do not depend on the seed; the
// seed only permutes the order configurations run in.
type exploreBattery struct {
	sc    scale
	cfgs  []explore.Config
	order []int
}

func (e *exploreBattery) setupBatch() int { return 1024 }

func (e *exploreBattery) reset() { e.cfgs, e.order = nil, nil }

func (e *exploreBattery) numOps() int { return len(e.cfgs) }

func (e *exploreBattery) label(i int) string { return e.cfgs[e.order[i]].Label() }

func (e *exploreBattery) setup(seed int64, tr *tracer) map[string]float64 {
	end := tr.begin("explore", "explore.Battery")
	cfgs := explore.Battery(true)
	end()
	if e.sc.exploreCfgs > 0 && e.sc.exploreCfgs < len(cfgs) {
		cfgs = cfgs[:e.sc.exploreCfgs]
	}
	for i := range cfgs {
		cfgs[i].Parallel = 1
	}
	e.cfgs = cfgs
	e.order = rand.New(rand.NewSource(seed)).Perm(len(cfgs))
	return nil
}

func (e *exploreBattery) run(i int, sw *stopwatch, tr *tracer, _ bool) (opResult, error) {
	ci := e.order[i]
	cfg := e.cfgs[ci]
	r := newOpResult(ci, e.label(i))

	sw.start()
	end := tr.begin("explore", "explore.Run")
	res := explore.Run(cfg)
	end()
	sw.stop()

	r.counts["explore.configs"] = 1
	r.counts["explore.states"] = float64(res.States)
	r.counts["explore.replays"] = float64(res.Replays)
	r.counts["explore.forks"] = float64(res.Forks)
	r.counts["explore.scratch_replays"] = float64(res.ScratchReplays)
	r.counts["explore.spec_wasted"] = float64(res.SpecWasted)
	r.counts["explore.cache_peak_bytes"] = float64(res.CachePeakBytes)

	// The digest covers what the search found, not how its replay cache
	// got there: forks, scratch replays, wasted speculation and cache
	// size are reported as counts but left out, so a faster search
	// engine can keep the digest.
	d := newDigest()
	d.str(r.label)
	d.u64(res.States, res.Schedules, res.Truncated, res.Replays, res.Decisions,
		res.FpPruned, res.SleepPruned, res.StutterPruned, uint64(res.MaxFrontier))
	if res.Violation != nil {
		d.str(res.Violation.Error())
	}
	r.hash = d.h.Sum64()

	switch {
	case res.Violation != nil:
		return r, fmt.Errorf("violation: %s", res.Violation.Error())
	case res.ForkMismatches != 0:
		return r, fmt.Errorf("%d forked outcomes disagreed with scratch replays", res.ForkMismatches)
	case res.States == 0:
		return r, errors.New("no states explored")
	}
	return r, nil
}

// chaosSoak runs serializability-checked soaks: each ext-chaos scheme ×
// {TTAS, MCS} under a random fault schedule, watchdogs armed. Each rep
// fills one soak image per machine flavour; every scheme × lock point of
// the rep forks it, with its own fault schedule.
type chaosSoak struct {
	sc     scale
	specs  []chaos.SoakSpec
	images map[chaosImageKey]*chaos.SoakImage
}

type chaosImageKey struct {
	rep    int
	flavor string
}

var (
	soakSchemes = []string{
		"Standard", "HLE", "HLE-HWExt", "RTM-LE", "HLE-SCM",
		"HLE-SCM-ideal", "HLE-SCM-multi", "Pes-SLR", "Opt-SLR", "Opt-SLR-SCM",
	}
	soakLocks = []string{"TTAS", "MCS"}
)

// soakFlavor names the machine flags a scheme's soak image needs; points
// share an image only within a flavour.
func soakFlavor(scheme string) string {
	switch scheme {
	case "HLE-HWExt", "HLE-SCM-ideal":
		return scheme
	}
	return "plain"
}

func (c *chaosSoak) setupBatch() int { return 1 }

func (c *chaosSoak) reset() { c.specs, c.images = nil, nil }

func (c *chaosSoak) numOps() int { return len(c.specs) }

func (c *chaosSoak) label(i int) string {
	return fmt.Sprintf("rep=%d %s", i/(len(soakSchemes)*len(soakLocks)), c.specs[i].Scheme.String())
}

func (c *chaosSoak) setup(seed int64, tr *tracer) map[string]float64 {
	c.specs = nil
	c.images = make(map[chaosImageKey]*chaos.SoakImage)
	for rep := 0; rep < c.sc.soakReps; rep++ {
		for si, sch := range soakSchemes {
			for li, lk := range soakLocks {
				spec := chaos.SoakSpec{
					Scheme:       harness.SchemeSpec{Scheme: sch, Lock: lk},
					Seed:         harness.DeriveSeed(seed, rep),
					Threads:      c.sc.soakThreads,
					OpsPerThread: c.sc.soakOps,
				}
				// Horizon as RunSoak's default: comparable to the run.
				spec.Schedule = chaos.RandomSchedule(harness.DeriveSeed(seed, rep, si, li),
					spec.Threads, 150_000, 6)
				c.specs = append(c.specs, spec)
				key := chaosImageKey{rep, soakFlavor(sch)}
				if c.images[key] == nil {
					end := tr.begin("chaos", "chaos.BuildSoakImage")
					c.images[key] = chaos.BuildSoakImage(spec)
					end()
				}
			}
		}
	}
	return nil
}

func (c *chaosSoak) run(i int, sw *stopwatch, tr *tracer, traced bool) (opResult, error) {
	spec := c.specs[i]
	rep := i / (len(soakSchemes) * len(soakLocks))
	img := c.images[chaosImageKey{rep, soakFlavor(spec.Scheme.Scheme)}]
	r := newOpResult(i, c.label(i))
	var ev *eventCounter
	var col *obs.Collector
	if traced {
		col = obs.New(obs.Options{})
		ev = &eventCounter{next: col}
		spec.Observer = ev
	}

	sw.start()
	end := tr.begin("chaos", "chaos.RunSoakFrom")
	res := chaos.RunSoakFrom(img, spec)
	end()
	sw.stop()

	r.counts["chaos.soaks"] = 1
	r.counts["chaos.ops"] = float64(res.Ops)
	r.counts["chaos.injected.aborts"] = float64(res.Injected.Aborts)
	r.counts["chaos.injected.stalls"] = float64(res.Injected.Stalls)
	r.counts["chaos.injected.stall_cycles"] = float64(res.Injected.StallCyc)
	r.counts["chaos.injected.squeezes"] = float64(res.Injected.Squeezes)
	r.counts["chaos.injected.skews"] = float64(res.Injected.Skews)
	if res.Failure != nil {
		r.counts["chaos.trips"] = 1
	}

	d := newDigest()
	d.str(r.label)
	d.u64(uint64(res.Ops), uint64(res.Injected.Aborts), uint64(res.Injected.Stalls),
		res.Injected.StallCyc, uint64(res.Injected.Squeezes), uint64(res.Injected.Skews))
	for _, f := range res.Schedule {
		d.str(f.String())
	}
	switch {
	case res.Failure != nil:
		d.str("trip: " + res.Failure.Error())
	case res.CheckErr != nil:
		d.str("check: " + res.CheckErr.Error())
	}
	r.hash = d.h.Sum64()

	switch {
	case res.Failure != nil:
		return r, fmt.Errorf("watchdog trip: %s", res.Failure.Error())
	case res.CheckErr != nil:
		return r, fmt.Errorf("not serializable: %w", res.CheckErr)
	case res.Ops != spec.Threads*spec.OpsPerThread:
		return r, fmt.Errorf("recorded %d ops, want %d", res.Ops, spec.Threads*spec.OpsPerThread)
	}
	if traced {
		// Injected aborts reach the program as spurious ones, so they
		// show up under tsx.aborts.spurious and obs.aborts.injected.
		addTSX(r.counts, ev.stats)
		p := col.Profile()
		addObs(r.counts, p)
		if p.CauseSum() != ev.stats.TotalAborts() {
			return r, fmt.Errorf("obs attributes %d aborts, tsx reported %d",
				p.CauseSum(), ev.stats.TotalAborts())
		}
	}
	return r, nil
}

// eventCounter counts the engine's transaction events by cause and passes
// every event on to an obs collector. A soak exposes no tsx.Stats, so on
// chaos-soak the traced run takes the tsx counts from these events.
type eventCounter struct {
	next  tsx.Observer
	stats tsx.Stats
}

func (e *eventCounter) BindMachine(m *tsx.Machine) { e.next.BindMachine(m) }

func (e *eventCounter) TxBegin(thread int, clock uint64) {
	e.stats.Begun++
	e.next.TxBegin(thread, clock)
}

func (e *eventCounter) TxCommit(thread int, clock, begin uint64, accesses int) {
	e.stats.Committed++
	e.next.TxCommit(thread, clock, begin, accesses)
}

func (e *eventCounter) TxAbort(thread int, clock, begin uint64, cause tsx.Cause, line, aggressor int, injected, elided bool) {
	e.stats.Aborted[cause]++
	e.next.TxAbort(thread, clock, begin, cause, line, aggressor, injected, elided)
}

func (e *eventCounter) Serial(thread int, clock uint64, on bool) { e.next.Serial(thread, clock, on) }

func (e *eventCounter) Grant(proc int, clock uint64) { e.next.Grant(proc, clock) }
