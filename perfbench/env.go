package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// processCPU is the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPU is CLOCK_THREAD_CPUTIME_ID: the calling OS thread's
// CPU time, which the hypervisor's steal does not inflate. Callers
// hold runtime.LockOSThread so the thread is the goroutine's own.
const clockThreadCPU = 3

func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// runtimeCounters reads the Go runtime's cumulative counters.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the runtime estimates it
}

var counterNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readCounters() runtimeCounters {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// allocated is the process's cumulative heap allocation in bytes.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler records heap memory in use (object bytes plus the unused
// tails of in-use spans) every millisecond, keeping the peak of each
// heapBucket of the window.
type heapSampler struct {
	stop  chan struct{}
	done  sync.WaitGroup
	peaks []uint64
}

const heapBucket = 10 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	start := time.Now()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			b := int(time.Since(start) / heapBucket)
			for len(h.peaks) <= b {
				h.peaks = append(h.peaks, 0)
			}
			if v := s[0].Value.Uint64() + s[1].Value.Uint64(); v > h.peaks[b] {
				h.peaks[b] = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak of every bucket.
func (h *heapSampler) Stop() []uint64 {
	close(h.stop)
	h.done.Wait()
	return h.peaks
}

// peakBetween is the highest sample from..to after the sampler started.
func peakBetween(peaks []uint64, from, to time.Duration) uint64 {
	var p uint64
	for b := int(from / heapBucket); b <= int(to/heapBucket) && b < len(peaks); b++ {
		p = max(p, peaks[b])
	}
	return p
}

// cpuTimes is the machine-wide "cpu" line of /proc/stat in jiffies.
type cpuTimes struct{ steal, total uint64 }

func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of machine CPU time the hypervisor stole
// between two readings, in percent.
func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

func fmtEnv(steal float64, procs int, goVersion string) string {
	return fmt.Sprintf("env.steal_pct=%.2f gomaxprocs=%d go=%s", steal, procs, goVersion)
}
