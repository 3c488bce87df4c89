package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// span is one call the benchmark made into a layer of the simulator.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out once the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// call site. The benchmark drives the simulator from one goroutine, so the
// open-span stack needs no lock.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // indices into spans of the open spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns a function
// that closes it.
func (tr *tracer) begin(layer, name string) func() {
	if tr == nil {
		return func() {}
	}
	parent := 0
	if n := len(tr.stack); n > 0 {
		parent = tr.spans[tr.stack[n-1]].ID
	}
	idx := len(tr.spans)
	tr.spans = append(tr.spans, span{
		ID:     idx + 1,
		Parent: parent,
		Name:   name,
		Layer:  layer,
		Start:  time.Since(tr.t0).Nanoseconds(),
	})
	tr.stack = append(tr.stack, idx)
	return func() {
		tr.spans[idx].End = time.Since(tr.t0).Nanoseconds()
		// Spans close in LIFO order; a panic unwinding through several
		// open spans closes each on its way out.
		for n := len(tr.stack); n > 0; n-- {
			top := tr.stack[n-1]
			tr.stack = tr.stack[:n-1]
			if top == idx {
				break
			}
		}
	}
}

// write stores the spans as JSON.
func (tr *tracer) write(path string) error {
	b, err := json.MarshalIndent(tr.spans, "", " ")
	if err != nil {
		return fmt.Errorf("marshal spans: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// Layers of the CPU-share fold. Packages of the simulator keep their own
// name; the Go runtime is split by what its self time was spent on.
var shareLayers = []string{
	"sim", "tsx", "mem", "locks", "core", "harness", "explore", "chaos",
	"obs", "check", "rbtree", "hle_other", "stdlib", "bench",
	"runtime.sched", "runtime.gc", "runtime.copy", "runtime.other",
}

var simLayers = map[string]bool{
	"sim": true, "tsx": true, "mem": true, "locks": true, "core": true,
	"harness": true, "explore": true, "chaos": true, "obs": true,
	"check": true, "rbtree": true,
}

// Runtime self-time classes, matched by substring of the function name in
// this order: bulk copying and clearing first (memmove also runs inside
// GC and scheduling code, and is reported as copying wherever it runs),
// then garbage collection and allocation, then goroutine scheduling and
// the locks and channels under it. Everything else — stack unwinding,
// maps, hashing, profiling signal handlers — is runtime.other.
var runtimeClasses = []struct {
	layer string
	keys  []string
}{
	{"runtime.copy", []string{"memmove", "memclr", "memequal", "typedslicecopy",
		"growslice", "copystack", "wbMove", "bulkBarrier"}},
	{"runtime.gc", []string{"gc", "GC", "mark", "Mark", "scan", "sweep", "Sweep",
		"malloc", "heap", "Heap", "span", "Span", "mcache", "mcentral", "WriteBarrier",
		"wbBuf", "greyobject", "findObject", "nextFree", "scaveng", "lfstack", "pageAlloc",
		"getempty", "putfull", "trygetfull", "newobject", "makeslice", "TypePointers",
		"typePointers", "bgsweep", "profilealloc"}},
	{"runtime.sched", []string{"sched", "chan", "park", "ready", "casgstatus",
		"lock", "futex", "note", "runq", "findRunnable", "findrunnable", "execute",
		"gogo", "mcall", "systemstack", "goexit", "wakep", "startm", "stopm",
		"handoffp", "acquirep", "releasep", "spinning", "select", "sudog", "waitq",
		"guintptr", "muintptr", "puintptr", "procyield", "osyield", "usleep",
		"nanotime", "sema", "send", "recv", "newproc", "gfget", "gfput",
		"osched", "syscall", "Syscall", "netpoll", "imer", "stealWork", "mPark",
		"gosave", "dropg", "resetspinning", "injectglist", "entersyscall",
		"exitsyscall", "casGTo"}},
}

// classify maps one function symbol from a CPU profile to a share layer.
func classify(fn string) string {
	// Generic instantiations carry their type arguments in brackets,
	// which may themselves contain dots and slashes.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	pkgEnd := len(fn)
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkgEnd = slash + 1 + dot
	} else {
		// Assembly stubs such as gogo carry no package: they are runtime.
		pkgEnd = 0
	}
	pkg, name := fn[:pkgEnd], fn[pkgEnd:]
	switch {
	case strings.HasPrefix(pkg, "hle/internal/"):
		p := strings.TrimPrefix(pkg, "hle/internal/")
		if simLayers[p] {
			return p
		}
		return "hle_other"
	case pkg == "main" || strings.HasPrefix(pkg, "hle/benchmark"):
		return "bench"
	case pkg == "" || pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") ||
		strings.HasPrefix(pkg, "runtime/internal/"):
		if strings.HasPrefix(pkg, "internal/runtime/atomic") ||
			strings.HasPrefix(pkg, "internal/runtime/syscall") {
			return "runtime.sched"
		}
		for _, c := range runtimeClasses {
			for _, k := range c.keys {
				if strings.Contains(name, k) {
					return c.layer
				}
			}
		}
		return "runtime.other"
	}
	return "stdlib"
}

// topLine matches one node line of `go tool pprof -top -unit=ns`, and
// topTotal its header line naming the time the printed nodes account for
// and the profile's total sampled time.
var (
	topLine  = regexp.MustCompile(`^\s*(\d+)ns\s+\S+%\s+\S+%\s+\d+ns\s+\S+%\s+(.+)$`)
	topTotal = regexp.MustCompile(`accounting for (\d+)ns, \S+ of (\d+)ns total`)
)

// cpuShares folds a CPU profile by layer: each function's self time, as a
// percentage of the profile's total sampled time, summed per share layer.
// Samples the profiler could not unwind carry no function; pprof prints no
// node for them, and they count as runtime.other. The shares sum to 100
// only if every node pprof printed was folded. It shells out to the
// toolchain's pprof, which is part of every Go installation.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ns",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	flat := make(map[string]float64)
	var shown, total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if m := topTotal.FindStringSubmatch(sc.Text()); m != nil && total == 0 {
			shown, err = strconv.ParseFloat(m[1], 64)
			if err == nil {
				total, err = strconv.ParseFloat(m[2], 64)
			}
			if err != nil {
				return nil, fmt.Errorf("parse pprof header %q: %w", sc.Text(), err)
			}
			continue
		}
		m := topLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return nil, fmt.Errorf("parse pprof line %q: %w", sc.Text(), err)
		}
		fn := strings.TrimSuffix(strings.TrimSpace(m[2]), " (inline)")
		flat[classify(fn)] += ns
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read pprof output: %w", err)
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile %s has no samples", profile)
	}
	flat["runtime.other"] += total - shown
	shares := make(map[string]float64, len(shareLayers))
	for _, l := range shareLayers {
		shares[l] = 100 * flat[l] / total
	}
	return shares, nil
}
