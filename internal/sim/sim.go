//go:build go1.23

// Package sim provides a deterministic, cycle-approximate simulator of a
// small multicore machine.
//
// Simulated hardware threads ("procs") run as coroutines (iter.Pull), and
// execution is serialized through a scheduler token: at any instant exactly
// one proc is running, and the token always passes to the proc with the
// smallest virtual clock. Each simulated memory access advances the issuing
// proc's clock by the access cost, so virtual time behaves like parallel
// wall time on a real machine, while the host needs only a single CPU and
// every run is reproducible from a seed.
//
// The proc that exhausts its grant runs the scheduling decision inline —
// one fused min/runner-up clock scan, one RNG draw — and parks, leaving
// the chosen proc to a small dispatch loop in Run, which resumes it. A
// yield is a pair of coroutine switches (yielder to dispatch loop, dispatch
// loop to chosen proc) that bypass the Go scheduler entirely; a sole
// remaining proc re-grants itself with no switch at all. See DESIGN.md for
// why this preserves byte-identical schedules with the earlier
// goroutine-and-channel formulations.
//
// Upper layers (the TSX engine in internal/tsx) perform all shared-state
// manipulation between a grant and the following yield, so they need no
// Go-level synchronization of their own.
//
// The go1.23 build line raises this file's language version to the one
// iter.Pull needs, standing in for a go.mod bump: the nested benchmark
// module requires this one, says go 1.22 and builds with -mod=readonly,
// so a go 1.23 line here would make its build demand a go.mod update.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Config describes the simulated machine.
type Config struct {
	// Procs is the number of simulated hardware threads.
	Procs int
	// Seed makes runs reproducible. Two runs with equal Config and equal
	// workloads produce identical schedules and identical statistics.
	Seed int64
	// Quantum is the number of virtual cycles a proc may run past the
	// runner-up clock before it must yield to the scheduler. Smaller
	// values interleave more finely at higher simulation cost.
	// Zero selects DefaultQuantum.
	Quantum uint64

	// Grant, when non-nil, adjusts the randomized grant slice before it is
	// handed to a proc — the fault-injection point for scheduler-grant
	// skew. It runs after the scheduler's own random draw, so a nil Grant
	// and an identity Grant produce byte-identical schedules.
	Grant func(procID int, clock, slice uint64) uint64

	// OnGrant, when non-nil, observes every scheduler grant in issue
	// order with the granted proc and its clock (the minimum clock in
	// the machine). Profiling collectors sample occupancy from it. It
	// must be passive: schedules are byte-identical with and without it.
	OnGrant func(procID int, clock uint64)

	// Watchdog, when non-nil, is consulted before every grant with the
	// about-to-run proc's clock (the minimum clock in the machine).
	// Returning true stops the simulation: every remaining proc unwinds
	// at its next Step and Run returns normally with those procs marked
	// Stopped. The liveness watchdogs in internal/harness use this to
	// degrade a livelocked or deadlocked run into a diagnostic result
	// instead of a hang.
	Watchdog func(minClock uint64) bool

	// Strategy, when non-nil, REPLACES the default scheduling policy: at
	// every scheduling decision the strategy — not the fused min-clock
	// scan plus randomized slice draw — picks which proc runs next and
	// for how long. The model checker in internal/explore uses it to
	// enumerate interleavings; see Strategy. In strategy mode Grant and
	// Watchdog are ignored (the strategy subsumes both: it controls every
	// grant and may stop the run), and the scheduler's RNG is never
	// consulted, so a strategy-driven run is a pure function of the
	// strategy's decisions and the workload. A nil Strategy leaves the
	// default policy byte-identical to a build without the hook.
	Strategy Strategy
}

// Choice is one runnable proc presented to a Strategy at a scheduling
// decision, in ascending ProcID order.
type Choice struct {
	ProcID int
	Clock  uint64
}

// Decision is a Strategy's answer to one scheduling decision.
type Decision struct {
	// Index selects choices[Index] as the proc to grant.
	Index int
	// Target is the granted proc's new clock target: the proc yields back
	// at its first Step that reaches Target. A target at or just above
	// the proc's current clock makes the grant a single simulated access
	// — the granularity an interleaving explorer wants.
	Target uint64
	// Steps, when positive, makes the grant step-counted instead of
	// clock-targeted: the proc yields back after exactly Steps calls to
	// Step with non-zero cost, and Target is ignored. A Steps=n grant is
	// observably identical to n consecutive single-step grants to the
	// same proc (each Step advances the clock by its cost either way, and
	// zero-cost Steps pass through both forms without yielding); it
	// exists so a replayer forcing a known schedule can batch runs of
	// same-proc decisions into one handoff.
	Steps int
	// Stop aborts the run: every remaining proc unwinds at its next Step
	// and Run returns normally with those procs marked Stopped.
	Stop bool
}

// Strategy decides scheduler grants in place of the default policy. Pick is
// called with the runnable procs (ascending ProcID; always at least one)
// each time a grant is needed, and runs on whichever proc's coroutine (or
// Run itself, for the first grant) holds the scheduler token —
// implementations need no locking but must not block. A panic in Pick
// ends the run: it comes out of Run like a panic in a body.
type Strategy interface {
	Pick(choices []Choice) Decision
}

// DefaultQuantum is used when Config.Quantum is zero. It is small enough
// that independent procs interleave within a single short critical section.
const DefaultQuantum = 12

// Proc is one simulated hardware thread. A Proc is only valid inside the
// body function passed to Run, and must not be shared across bodies.
type Proc struct {
	// ID is the hardware thread index, in [0, Config.Procs).
	ID int

	clock   uint64
	target  uint64
	steps   int // remaining cost>0 steps of a step-counted grant (0: clock-targeted)
	sched   *sched
	pending grantMsg // the grant the token arrives with, set by its giver
	rngSeed int64
	rng     *rand.Rand // lazily built from rngSeed on first Rand()
	stopped bool
	w       *worker // the coroutine running this proc's body; nil once it ended
}

// grantMsg is what a proc receives when the token is handed to it: a new
// clock target (or a step budget, for step-counted grants), or a stop
// order that unwinds the proc's body.
type grantMsg struct {
	target uint64
	steps  int
	stop   bool
}

// stopSignal is the panic value that unwinds a proc's body when the
// scheduler stops the simulation. It deliberately does not implement error:
// transaction-rollback recovers (internal/tsx) re-raise everything that is
// not their own sentinel, so the signal always reaches the proc wrapper.
type stopSignal struct{}

// abandonSignal unwinds a parked proc whose Run is leaving abnormally (a
// panic elsewhere ended the run): the proc's body stops at the yield it
// was parked in, and its wrapper returns without touching the scheduler.
type abandonSignal struct{}

// grantHook, when non-nil, observes every scheduler grant in issue order:
// the granted proc, its new clock target, and whether the grant is a stop
// order. It exists for the schedule-hash regression tests, which fingerprint
// the exact grant sequence; production code must leave it nil.
var grantHook func(procID int, target uint64, stop bool)

// grantCount counts scheduler grants process-wide, flushed once per Run.
// hle-bench reads it to report grants/sec alongside wall time.
var grantCount atomic.Uint64

// Grants returns the total number of scheduler grants issued by completed
// Run calls in this process. The difference across a workload, divided by
// its wall time, is the simulator's grant throughput.
func Grants() uint64 { return grantCount.Load() }

// sched is the shared scheduling state of one Run. It has no lock: only
// the proc holding the token (or Run's dispatch loop, between two procs)
// touches it. Each proc runs on its own coroutine (a pooled worker), but a
// coroutine switch is a synchronous handoff — the switching side stops
// before the resumed side starts, and iter.Pull annotates every switch as
// a release/acquire pair — so the accesses are ordered (happens-before)
// for the memory model and the race detector alike.
type sched struct {
	quantum  uint64
	grantFn  func(procID int, clock, slice uint64) uint64
	onGrant  func(procID int, clock uint64)
	watchdog func(minClock uint64) bool
	strategy Strategy
	choices  []Choice // reused presentation buffer (strategy mode only)
	rngSeed  int64
	rng      *rand.Rand // lazily built from rngSeed on first default-policy pick
	body     func(*Proc)
	running  []*Proc
	stopping bool
	grants   uint64
	next     *Proc // the proc the token passes to when the running one parks
	panicked *Proc // the proc whose panic ended the run, if any
	panicVal any
}

// pick runs one scheduling decision: select the minimum-clock proc (ties
// broken by position in the run queue, i.e. lowest ID until a finished proc
// is swap-removed) and compute its grant. The minimum and runner-up clocks
// come from a single fused scan. The caller must hold the token.
func (s *sched) pick() (*Proc, grantMsg) {
	if s.strategy != nil {
		return s.pickStrategy()
	}
	running := s.running
	minIdx := 0
	minClock := running[0].clock
	second := ^uint64(0)
	for i := 1; i < len(running); i++ {
		c := running[i].clock
		if c < minClock {
			second = minClock
			minClock = c
			minIdx = i
		} else if c < second {
			second = c
		}
	}
	p := running[minIdx]
	if !s.stopping && s.watchdog != nil && s.watchdog(minClock) {
		s.stopping = true
	}
	s.grants++
	if s.onGrant != nil {
		s.onGrant(p.ID, minClock)
	}
	var msg grantMsg
	if s.stopping {
		msg.stop = true
	} else {
		target := ^uint64(0)
		// A sole remaining proc normally gets an unbounded grant, but
		// with a watchdog armed every grant must be finite or a
		// livelocked last proc would never yield the token back.
		if second != ^uint64(0) || s.watchdog != nil {
			// Grant lengths are randomized in [1, quantum] to break
			// phase-locking: with deterministic equal-length grants,
			// threads running identical loops execute in rigid lockstep
			// and their critical sections never interleave in token
			// order, hiding conflicts that overlap in virtual time.
			// Real machines have scheduling noise; so does this one.
			if s.rng == nil {
				// Seeding is deferred to here because strategy-mode
				// picks never draw: a model-checking replay that makes
				// millions of Run calls would otherwise spend most of
				// its time filling rand's 607-word state tables.
				s.rng = rand.New(rand.NewSource(s.rngSeed))
			}
			slice := 1 + uint64(s.rng.Int63n(int64(s.quantum)))
			if s.grantFn != nil {
				slice = s.grantFn(p.ID, minClock, slice)
				if slice == 0 {
					slice = 1
				}
			}
			base := second
			if base == ^uint64(0) {
				base = minClock
			}
			if base < ^uint64(0)-slice {
				target = base + slice
			}
		}
		msg.target = target
	}
	if grantHook != nil {
		grantHook(p.ID, msg.target, msg.stop)
	}
	return p, msg
}

// pickStrategy runs one scheduling decision under an installed Strategy:
// the runnable procs are presented in ascending ProcID order (the run
// queue's own order depends on finish-time swap removals, which a
// strategy's choice indices must not see) and the strategy's decision is
// applied verbatim. Once a stop has been ordered — by the strategy or by a
// prior decision — every subsequent pick issues stop grants until the run
// unwinds, without consulting the strategy again.
func (s *sched) pickStrategy() (*Proc, grantMsg) {
	running := s.running
	s.grants++
	var p *Proc
	var msg grantMsg
	if s.stopping {
		p = running[0]
		msg.stop = true
	} else {
		cs := s.choices[:0]
		for _, q := range running {
			c := Choice{ProcID: q.ID, Clock: q.clock}
			i := len(cs)
			cs = append(cs, c)
			for i > 0 && cs[i-1].ProcID > c.ProcID {
				cs[i] = cs[i-1]
				i--
			}
			cs[i] = c
		}
		s.choices = cs
		d := s.strategy.Pick(cs)
		if d.Stop {
			s.stopping = true
			p = running[0]
			msg.stop = true
		} else {
			if d.Index < 0 || d.Index >= len(cs) {
				panic(fmt.Sprintf("sim: strategy picked index %d of %d choices", d.Index, len(cs)))
			}
			id := cs[d.Index].ProcID
			for _, q := range running {
				if q.ID == id {
					p = q
					break
				}
			}
			msg.target = d.Target
			if d.Steps > 0 {
				msg.target = ^uint64(0)
				msg.steps = d.Steps
			}
		}
	}
	if s.onGrant != nil {
		s.onGrant(p.ID, p.clock)
	}
	if grantHook != nil {
		grantHook(p.ID, msg.target, msg.stop)
	}
	return p, msg
}

// finish removes p from the run queue and returns the proc the token
// passes to, its grant already pending — or nil when p was the last
// runner. It runs on p's coroutine while p still holds the token.
func (s *sched) finish(p *Proc) *Proc {
	running := s.running
	for i, q := range running {
		if q == p {
			running[i] = running[len(running)-1]
			s.running = running[:len(running)-1]
			break
		}
	}
	if len(s.running) == 0 {
		return nil
	}
	next, msg := s.pick()
	next.pending = msg
	return next
}

// Clock returns the proc's current virtual time in cycles.
func (p *Proc) Clock() uint64 { return p.clock }

// Rand returns the proc's deterministic random source, built on first use
// so procs that never draw (e.g. under a schedule-exploration strategy
// with spurious aborts and jitter disabled) skip the seeding cost.
func (p *Proc) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.rngSeed))
	}
	return p.rng
}

// Stopped reports whether the proc was unwound by a watchdog stop rather
// than returning from its body. A stopped proc's body did not finish: its
// upper-layer state (open transactions, held locks) is torn and only good
// for diagnostics.
func (p *Proc) Stopped() bool { return p.stopped }

// Step advances the proc's virtual clock by cost cycles, yielding the
// token if the proc has run ahead of its peers. Every simulated memory
// access and every unit of simulated computation funnels through Step.
func (p *Proc) Step(cost uint64) {
	p.clock += cost
	if p.steps > 0 {
		if cost != 0 {
			p.steps--
			if p.steps == 0 {
				p.yieldToken()
			}
		}
		return
	}
	if p.clock >= p.target {
		p.yieldToken()
	}
}

// yieldToken runs the scheduling decision inline on the yielding proc and
// parks the proc, leaving the chosen runner for Run's dispatch loop; it
// returns when the loop resumes this proc with a new grant. When the
// yielder itself is still the minimum-clock proc (a sole runner under an
// armed watchdog, mainly), it keeps the token with no switch at all.
func (p *Proc) yieldToken() {
	s := p.sched
	next, msg := s.pick()
	next.pending = msg
	if next != p {
		s.next = next
		if !p.w.yield(struct{}{}) {
			panic(abandonSignal{})
		}
	}
	p.accept()
}

// accept installs the pending grant's target or step budget, unwinding the
// proc on a stop order.
func (p *Proc) accept() {
	g := p.pending
	if g.stop {
		p.stopped = true
		panic(stopSignal{})
	}
	p.target = g.target
	p.steps = g.steps
}

// Run simulates n procs, each executing body, and returns when all bodies
// have returned. The token always passes to the minimum-clock proc (ties
// broken by lowest ID), granted a quantum beyond the runner-up clock.
//
// A panic in a body, or in a scheduling decision (a Strategy, Watchdog,
// Grant or OnGrant hook), ends the run at once: procs still parked unwind
// without running more of their bodies, and the first panic is re-raised
// on the caller's goroutine.
//
// Bodies run on coroutines pooled across Run calls, so one goroutine may
// resume a coroutine another created. The runtime forbids that when
// either is locked to its OS thread, so Run must not be called from a
// goroutine locked with runtime.LockOSThread.
func Run(cfg Config, n int, body func(p *Proc)) []*Proc {
	if n <= 0 {
		panic(fmt.Sprintf("sim: Run with n = %d", n))
	}
	quantum := cfg.Quantum
	if quantum == 0 {
		quantum = DefaultQuantum
	}

	s := &sched{
		quantum:  quantum,
		grantFn:  cfg.Grant,
		onGrant:  cfg.OnGrant,
		watchdog: cfg.Watchdog,
		strategy: cfg.Strategy,
		rngSeed:  cfg.Seed*2_654_435_761 + 97,
		body:     body,
	}
	if s.strategy != nil {
		s.choices = make([]Choice, 0, n)
	}
	ws := takeWorkers(n)
	defer releaseWorkers(ws)
	procs := make([]*Proc, n)
	for i, w := range ws {
		procs[i] = &Proc{
			ID:      i,
			sched:   s,
			rngSeed: cfg.Seed*1_000_003 + int64(i)*7919 + 1,
			w:       w,
		}
		w.p = procs[i]
	}
	s.running = make([]*Proc, n)
	copy(s.running, procs)

	// The dispatch loop: the first scheduling decision runs here, every
	// later one inline on the proc holding the token, which leaves its
	// choice in s.next and parks (or, finishing, leaves its successor
	// there). A nil proc means the last runner finished or a panic ended
	// the run.
	p, msg := s.pick()
	p.pending = msg
	for p != nil {
		p.w.resume()
		p, s.next = s.next, nil
	}

	grantCount.Add(s.grants)
	if s.panicked != nil {
		panic(fmt.Sprintf("sim: proc %d panicked: %v", s.panicked.ID, s.panicVal))
	}
	return procs
}

// A worker is a coroutine that runs proc bodies, one per Run it is lent
// to, parking idle in between. Pooling them keeps coroutine creation off
// the path of short Runs, and it bounds a runtime cost that would
// otherwise grow without limit: under the race detector, a coroutine's
// detector state is never freed when it exits (about 5 KB each), which
// exhausts memory over the millions of Runs a model-checking sweep makes.
type worker struct {
	resume func() (struct{}, bool) // runs the coroutine until it parks
	stop   func()                  // unwinds a parked coroutine and ends it
	yield  func(struct{}) bool     // parks the coroutine, back to Run
	p      *Proc                   // the proc whose body runs next
	idle   bool                    // parked between bodies or never started
}

func newWorker() *worker {
	w := &worker{idle: true}
	w.resume, w.stop = iter.Pull(func(yield func(struct{}) bool) {
		w.yield = yield
		for {
			w.idle = false
			if !w.run() {
				return
			}
			w.idle = true
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return w
}

// run executes the lent proc's body, then leaves the proc the token
// passes to in s.next: the finishing proc's successor, or nil when the
// run is over. It reports false when the body was abandoned, which ends
// the worker.
func (w *worker) run() (reusable bool) {
	p := w.p
	s := p.sched
	defer func() {
		p.w = nil
		switch r := recover(); r.(type) {
		case nil, stopSignal:
			s.next = s.finish(p)
		case abandonSignal:
			return // Run is unwinding: leave the scheduler alone.
		default:
			s.panicked, s.panicVal = p, r
		}
		reusable = true
	}()
	p.accept()
	s.body(p)
	return
}

// idleWorkers holds parked workers between Runs, shared by every host
// goroutine that calls Run. Workers beyond maxIdleWorkers are ended
// rather than kept.
var idleWorkers struct {
	sync.Mutex
	free []*worker
}

const maxIdleWorkers = 256

// takeWorkers lends n workers to a Run, creating any the pool lacks.
func takeWorkers(n int) []*worker {
	ws := make([]*worker, n)
	idleWorkers.Lock()
	free := idleWorkers.free
	k := min(n, len(free))
	copy(ws, free[len(free)-k:])
	clear(free[len(free)-k:])
	idleWorkers.free = free[:len(free)-k]
	idleWorkers.Unlock()
	for i := k; i < n; i++ {
		ws[i] = newWorker()
	}
	return ws
}

// releaseWorkers returns a Run's idle workers to the pool and stops the
// rest: a worker still parked mid-body (the run ended in a panic) unwinds
// its body; one whose coroutine already ended stops as a no-op.
func releaseWorkers(ws []*worker) {
	idleWorkers.Lock()
	for i, w := range ws {
		w.p = nil // an idle worker must not keep the finished Run alive
		if w.idle && len(idleWorkers.free) < maxIdleWorkers {
			idleWorkers.free = append(idleWorkers.free, w)
			ws[i] = nil
		}
	}
	idleWorkers.Unlock()
	for _, w := range ws {
		if w != nil {
			w.stop()
		}
	}
}
