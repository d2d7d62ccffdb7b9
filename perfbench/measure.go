package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as numpy's default). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e6 }

// tailOK reports whether a sample of n values holds at least ten values
// beyond its q-quantile, the smallest sample a tail percentile is
// reported from.
func tailOK(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// cpuSeconds is the process's user plus system CPU time so far, from
// getrusage: every thread counts, so GC and background compaction on
// another core are included, and hypervisor steal is not.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stealSeconds reads the host-wide steal time from /proc/stat, summed
// over all CPUs, in seconds (the kernel counts it in USER_HZ = 100 ticks
// per second). It returns 0 where /proc/stat is unavailable.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// window brackets the timed part of a run: wall time, process CPU,
// host steal and the Go runtime's allocation and GC counters.
type window struct {
	start time.Time
	cpu   float64
	steal float64
	mem   runtime.MemStats

	wall     float64
	cpuUsed  float64
	stolen   float64
	memAfter runtime.MemStats
	liveMB   float64
}

// openWindow collects garbage left from set-up and input generation,
// resets the process's peak-RSS mark so the peak covers the window
// alone, then starts the clocks.
func openWindow() *window {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0+); where it
	// fails the peak also covers set-up, which only raises it.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	w := &window{}
	runtime.ReadMemStats(&w.mem)
	w.steal = stealSeconds()
	w.cpu = cpuSeconds()
	w.start = time.Now()
	return w
}

// close stops the clocks, then collects garbage to measure the heap
// the program holds live at the end of the window.
func (w *window) close() {
	w.wall = time.Since(w.start).Seconds()
	w.cpuUsed = cpuSeconds() - w.cpu
	w.stolen = stealSeconds() - w.steal
	runtime.ReadMemStats(&w.memAfter)
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.liveMB = float64(m.HeapAlloc) / (1 << 20)
}

// report adds the window's resource figures: cpu_ms_per_op to the
// end-to-end set and the runtime and host figures to the layer set.
func (w *window) report(r *report, ops int) {
	if ops < 1 {
		ops = 1
	}
	r.e2e("cpu_ms_per_op", "ms", 1e3*w.cpuUsed/float64(ops))
	allocMB := float64(w.memAfter.TotalAlloc-w.mem.TotalAlloc) / (1 << 20)
	gcs := w.memAfter.NumGC - w.mem.NumGC
	pauseMS := float64(w.memAfter.PauseTotalNs-w.mem.PauseTotalNs) / 1e6
	r.layer("runtime.alloc_mb_per_op", "MB", allocMB/float64(ops))
	r.layer("runtime.gc_cycles", "count", float64(gcs))
	r.layer("runtime.gc_pause_ms", "ms", pauseMS)
	r.layer("runtime.heap_live_mb", "MB", w.liveMB)
	r.layer("host.steal_share", "1", w.stolen/(w.wall*float64(runtime.NumCPU())))
	r.note("window: %.3f s wall, %.3f s cpu, host.steal_s %.2f, %d ops, %d GC cycles (%.2f ms paused), %.1f MB allocated",
		w.wall, w.cpuUsed, w.stolen, ops, gcs, pauseMS, allocMB)
}
