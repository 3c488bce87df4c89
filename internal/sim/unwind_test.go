package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// recoverRun runs Run and returns what it panicked with (nil if it
// returned), checking that every proc coroutine has ended or is parked
// idle in the worker pool afterwards.
func recoverRun(t *testing.T, cfg Config, n int, body func(p *Proc)) (procs []*Proc, panicked any) {
	t.Helper()
	before := runtime.NumGoroutine() - idleWorkerCount()
	func() {
		defer func() { panicked = recover() }()
		procs = Run(cfg, n, body)
	}()
	if after := runtime.NumGoroutine() - idleWorkerCount(); after != before {
		t.Errorf("goroutines outside the idle pool: %d before Run, %d after; proc coroutines leaked", before, after)
	}
	return procs, panicked
}

func idleWorkerCount() int {
	idleWorkers.Lock()
	defer idleWorkers.Unlock()
	return len(idleWorkers.free)
}

// TestBodyPanicAbandonsParkedPeers: a body panic ends the run at once.
// Peers parked mid-grant unwind from the yield they were parked in —
// their deferred calls run, but no more of their bodies and no further
// scheduling decision — and the panic that ended the run is the one
// reported, even though a lower-ID proc would have panicked later.
func TestBodyPanicAbandonsParkedPeers(t *testing.T) {
	const n = 4
	grants, grantsAtBoom := 0, -1
	grantHook = func(int, uint64, bool) { grants++ }
	defer func() { grantHook = nil }()
	var unwound [n]bool
	ranAfter := 0
	_, r := recoverRun(t, Config{Seed: 5, Quantum: 2}, n, func(p *Proc) {
		defer func() { unwound[p.ID] = true }()
		for i := 0; i < 1_000_000; i++ {
			if grantsAtBoom >= 0 {
				ranAfter++
			}
			if p.ID == 2 && i == 40 {
				grantsAtBoom = grants
				panic("boom-2")
			}
			if p.ID == 0 && i == 400 {
				panic("boom-0")
			}
			p.Step(1)
		}
	})
	msg, _ := r.(string)
	if !strings.Contains(msg, "proc 2 panicked: boom-2") {
		t.Fatalf("Run panicked with %v, want proc 2's boom-2", r)
	}
	if ranAfter != 0 {
		t.Errorf("peers ran %d more loop iterations after the panic", ranAfter)
	}
	if grants != grantsAtBoom {
		t.Errorf("%d grants issued after the panic, want 0", grants-grantsAtBoom)
	}
	for id, u := range unwound {
		if !u {
			t.Errorf("proc %d's deferred calls did not run: it was not unwound", id)
		}
	}
}

// TestSchedulingPanicIsRecoverable: a panic raised by a scheduling
// decision — inline on a yielding proc, inside a finishing proc's
// handoff, or in Run's first pick — comes out of Run as an ordinary
// panic the caller can recover, with every proc coroutine gone.
func TestSchedulingPanicIsRecoverable(t *testing.T) {
	spin := func(p *Proc) {
		for {
			p.Step(3)
		}
	}
	// finishFirst: proc 0 returns at once, so the decision after its
	// first grant runs in its finish handoff; the others spin.
	finishFirst := func(p *Proc) {
		if p.ID == 0 {
			return
		}
		spin(p)
	}
	calls := 0
	badAfter := func(k int) Strategy {
		return pickFunc(func(cs []Choice) Decision {
			calls++
			if calls > k {
				return Decision{Index: 99}
			}
			return Decision{Index: 0, Steps: 1}
		})
	}
	cases := []struct {
		name string
		cfg  func() Config
		body func(p *Proc)
		want string
	}{
		{"strategy-first-pick", func() Config { return Config{Strategy: badAfter(0)} }, spin, "index 99 of 3"},
		{"strategy-in-yield", func() Config { return Config{Strategy: badAfter(5)} }, spin, "index 99 of 3"},
		{"strategy-in-finish", func() Config { return Config{Strategy: badAfter(1)} }, finishFirst, "index 99 of 2"},
		{"watchdog", func() Config {
			return Config{Seed: 1, Watchdog: func(c uint64) bool {
				if c > 300 {
					panic("watchdog-boom")
				}
				return false
			}}
		}, spin, "watchdog-boom"},
		{"grant", func() Config {
			return Config{Seed: 1, Grant: func(id int, c, slice uint64) uint64 {
				if c > 300 {
					panic("grant-boom")
				}
				return slice
			}}
		}, spin, "grant-boom"},
		{"on-grant-in-finish", func() Config {
			return Config{Seed: 1, OnGrant: func(id int, c uint64) {
				if calls++; calls > 1 {
					panic("ongrant-boom")
				}
			}}
		}, finishFirst, "ongrant-boom"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls = 0
			_, r := recoverRun(t, tc.cfg(), 3, tc.body)
			if r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
				t.Fatalf("Run panicked with %v, want a panic mentioning %q", r, tc.want)
			}
		})
	}
}

// TestStrategyStopMidStepsGrant: a Stop decided while a proc's Steps
// grant is still unspent (its body returned first) unwinds every
// remaining proc — the two parked after their own counted grants — and
// the strategy is not consulted again.
func TestStrategyStopMidStepsGrant(t *testing.T) {
	calls := 0
	strat := pickFunc(func(cs []Choice) Decision {
		calls++
		switch calls {
		case 1:
			return Decision{Index: 0, Steps: 3}
		case 2:
			return Decision{Index: 1, Steps: 2}
		case 3:
			return Decision{Index: 2, Steps: 5}
		}
		return Decision{Stop: true}
	})
	procs, r := recoverRun(t, Config{Strategy: strat}, 3, func(p *Proc) {
		steps := 1 << 30
		if p.ID == 2 {
			steps = 2 // returns two steps into its five-step grant
		}
		for i := 0; i < steps; i++ {
			p.Step(1)
		}
	})
	if r != nil {
		t.Fatalf("Run panicked: %v", r)
	}
	if calls != 4 {
		t.Errorf("strategy consulted %d times, want 4 (never again after Stop)", calls)
	}
	wantClock := []uint64{3, 2, 2}
	for i, p := range procs {
		if got, want := p.Stopped(), i != 2; got != want {
			t.Errorf("proc %d Stopped() = %v, want %v", i, got, want)
		}
		if p.Clock() != wantClock[i] {
			t.Errorf("proc %d clock = %d, want %d", i, p.Clock(), wantClock[i])
		}
	}
}

// TestWorkersReused: a Run's coroutines go back to the pool and the next
// Run borrows them instead of starting new ones, so a sweep of short Runs
// creates only as many coroutines as run at once.
func TestWorkersReused(t *testing.T) {
	seen := func() map[*worker]bool {
		ws := map[*worker]bool{}
		Run(Config{Seed: 1}, 3, func(p *Proc) {
			ws[p.w] = true
			p.Step(5)
		})
		return ws
	}
	first, second := seen(), seen()
	if len(first) != 3 {
		t.Fatalf("3 procs ran on %d workers", len(first))
	}
	for w := range second {
		if !first[w] {
			t.Fatalf("second Run started a new worker instead of reusing the first Run's")
		}
	}
}
