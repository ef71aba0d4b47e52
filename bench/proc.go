package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// oracle counts correctness checks. Every comparison the bench makes on the
// program's output is one attempted operation; a failed run keeps the first
// few reasons.
type oracle struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	reasons   []string
}

func (o *oracle) check(ok bool, format string, args ...any) {
	o.attempted.Add(1)
	if ok {
		return
	}
	o.failed.Add(1)
	o.mu.Lock()
	if len(o.reasons) < 8 {
		o.reasons = append(o.reasons, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
}

func (o *oracle) fail(format string, args ...any) { o.check(false, format, args...) }

// procSnap is a reading of the process-wide cost counters; phases are
// charged the difference of two readings.
type procSnap struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	alloc   uint64
	pauseNs uint64
}

func readProc() procSnap {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSnap{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs,
		alloc:   m.TotalAlloc,
		pauseNs: m.PauseTotalNs,
	}
}

// heapLiveMB forces two collections and returns what survives them: the
// second empties the sync.Pool victim caches (pooled frames), which the first
// keeps or drops depending on how long ago the last natural cycle ran.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads VmHWM from /proc/self/status (0 when unavailable).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		if f := strings.Fields(line); len(f) >= 2 {
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// hostJiffies reads the first line of /proc/stat: the jiffies the hypervisor
// gave to other guests while this one was runnable (steal), and all jiffies.
// Both are 0 where the file is missing.
func hostJiffies() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// environment is recorded in every result file so two sets of numbers can
// be judged comparable before they are compared.
type environment struct {
	CPUs       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Seed       uint64 `json:"seed"`
	S          int    `json:"s"`
}

func readEnvironment(seed uint64, s int) environment {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	return environment{
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       seed,
		S:          s,
	}
}
