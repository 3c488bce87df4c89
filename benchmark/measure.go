package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hle/internal/sim"
)

// cpuTime returns the process's user+system CPU time. It counts every
// thread, so work the Go runtime moves onto GC workers shows up here even
// when it hides from wall time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-memory high-water mark (VmHWM)
// from /proc/self/status, in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line[len("VmHWM:"):])
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// stopwatch accumulates the host cost of the timed sections of one op:
// wall time, CPU time and scheduler grants. Output checks run between
// sections and are not counted.
type stopwatch struct {
	wall, cpu time.Duration
	grants    uint64

	t0   time.Time
	c0   time.Duration
	g0   uint64
	open bool
}

func (s *stopwatch) start() {
	s.open = true
	s.g0 = sim.Grants()
	s.c0 = cpuTime()
	s.t0 = time.Now()
}

func (s *stopwatch) stop() {
	if !s.open {
		return
	}
	s.wall += time.Since(s.t0)
	s.cpu += cpuTime() - s.c0
	s.grants += sim.Grants() - s.g0
	s.open = false
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// timingSummary is a timing distribution reported the way every timing in
// this benchmark is: the median, plus the highest whole percentile that
// still has tailBeyond samples above it, with the sample count.
type timingSummary struct {
	n       int
	p50     float64
	tail    float64
	tailPct float64
}

// summarize computes the median and tail of xs. With too few samples for
// a tail, the tail is the median (percentile 50).
func summarize(xs []float64) timingSummary {
	ts := timingSummary{n: len(xs), p50: median(xs), tailPct: 50}
	ts.tail = ts.p50
	if len(xs) <= tailBeyond {
		return ts
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The highest whole percentile p whose rank ceil(n*p/100) still
	// leaves tailBeyond samples above it.
	n := len(s)
	p := math.Floor(100 * float64(n-tailBeyond) / float64(n))
	for p > 50 && n-int(math.Ceil(float64(n)*p/100)) < tailBeyond {
		p--
	}
	if p <= 50 {
		return ts
	}
	rank := int(math.Ceil(float64(n) * p / 100)) // 1-based
	ts.tail = s[rank-1]
	ts.tailPct = p
	return ts
}

func (ts timingSummary) String() string {
	return fmt.Sprintf("p50 %.6f s, p%.0f %.6f s over %d samples", ts.p50, ts.tailPct, ts.tail, ts.n)
}

// digest is an order-sensitive hash over the exact results of a pass. Two
// runs of the same seed must produce the same digest; any change to a
// simulated statistic changes it.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	_, _ = d.h.Write([]byte(s)) // hash writes never fail
}

func (d *digest) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = d.h.Write(b[:]) // hash writes never fail
	}
}

func (d *digest) sum() string {
	return fmt.Sprintf("%016x", d.h.Sum64())
}
