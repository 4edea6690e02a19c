// Package telemetry implements Meterstick's measurement components: the
// Metric Externalizer (component 7 of Figure 5), which reads application-
// level metrics from the MLG through its instrumentation interface (the
// role JMX plays for JVM servers — no access to game internals beyond the
// exposed tick statistics), and the System Metrics Collector (component 8),
// which samples operating-system-level metrics twice per second (Table 5:
// CPU, memory, threads, disk I/O, network I/O).
package telemetry

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/mlg/server"
)

// MetricInfo describes one Table 5 row: a metric Meterstick collects.
type MetricInfo struct {
	// Type is "D" (derived), "A" (application level) or "S" (system level).
	Type        string
	Name        string
	Description string
}

// Table5 returns the metric inventory exactly as listed in Table 5.
func Table5() []MetricInfo {
	return []MetricInfo{
		{Type: "D", Name: "Instability Ratio", Description: "Tick instability (see §4)"},
		{Type: "A", Name: "Response time", Description: "Round trip latency for clients"},
		{Type: "A", Name: "Tick duration", Description: "Duration of each tick"},
		{Type: "A", Name: "Tick distribution", Description: "Tick time by workload"},
		{Type: "S", Name: "CPU", Description: "CPU utilization"},
		{Type: "S", Name: "Memory", Description: "Memory usage"},
		{Type: "S", Name: "Threads", Description: "Thread total"},
		{Type: "S", Name: "Disk I/O", Description: "Bytes read/written"},
		{Type: "S", Name: "Network I/O", Description: "Bytes sent/received"},
	}
}

// Window is how many of the most recent tick durations an Externalizer
// keeps; everything older survives only in its running counts.
const Window = 200

// Externalizer reads application-level metrics from a running MLG without
// touching its internals: it folds the tick records the server emits (feed
// Observe from the server's AfterTick hook). Its memory does not grow with
// uptime: running counts plus the last Window durations.
type Externalizer struct {
	mu         sync.Mutex
	ticks      int
	overloaded int
	fig11      server.Fig11Totals
	recent     [Window]time.Duration // ring, indexed by tick count mod Window
}

// NewExternalizer returns an Externalizer that has observed nothing.
func NewExternalizer() *Externalizer { return &Externalizer{} }

// Observe folds one tick record into the metrics.
func (e *Externalizer) Observe(rec server.TickRecord) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.recent[e.ticks%Window] = rec.Dur
	e.ticks++
	if rec.Dur > server.TickBudget {
		e.overloaded++
	}
	e.fig11.Add(rec)
}

// Ticks returns how many ticks have been observed.
func (e *Externalizer) Ticks() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ticks
}

// OverloadedTicks counts observed ticks that exceeded the 50 ms budget.
func (e *Externalizer) OverloadedTicks() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.overloaded
}

// Distribution returns the cumulative tick-time split by operation
// category (the Figure 11 data).
func (e *Externalizer) Distribution() server.Fig11Totals {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fig11
}

// RecentMS returns the last min(Ticks, Window) tick durations in
// milliseconds, oldest first.
func (e *Externalizer) RecentMS() []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]float64, 0, Window)
	for i := max(0, e.ticks-Window); i < e.ticks; i++ {
		out = append(out, float64(e.recent[i%Window])/float64(time.Millisecond))
	}
	return out
}

// SystemSample is one 2 Hz system-metrics observation (Table 5, S rows).
type SystemSample struct {
	At             time.Time
	CPUPercent     float64
	HeapAllocBytes uint64
	SysBytes       uint64
	Goroutines     int
	Threads        int
	DiskReadBytes  int64
	DiskWriteBytes int64
	NetSentBytes   int64
	NetRecvBytes   int64
}

// SystemCollector samples process- and OS-level metrics. It reads Linux
// /proc where available and falls back to runtime statistics elsewhere, so
// the collector is portable (R7).
type SystemCollector struct {
	lastCPU  time.Duration
	lastWall time.Time
	samples  []SystemSample
}

// NewSystemCollector returns a collector ready to sample.
func NewSystemCollector() *SystemCollector {
	c := &SystemCollector{}
	c.lastCPU = processCPUTime()
	c.lastWall = time.Now()
	return c
}

// Sample takes one observation. netSent/netRecv are supplied by the caller
// (the benchmark knows its connections' counters).
func (c *SystemCollector) Sample(netSent, netRecv int64) SystemSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	now := time.Now()
	cpu := processCPUTime()
	var pct float64
	if wall := now.Sub(c.lastWall); wall > 0 {
		pct = float64(cpu-c.lastCPU) / float64(wall) * 100
	}
	c.lastCPU, c.lastWall = cpu, now

	read, write := processDiskIO()
	s := SystemSample{
		At:             now,
		CPUPercent:     pct,
		HeapAllocBytes: ms.HeapAlloc,
		SysBytes:       ms.Sys,
		Goroutines:     runtime.NumGoroutine(),
		Threads:        processThreads(),
		DiskReadBytes:  read,
		DiskWriteBytes: write,
		NetSentBytes:   netSent,
		NetRecvBytes:   netRecv,
	}
	c.samples = append(c.samples, s)
	return s
}

// Samples returns all observations taken so far.
func (c *SystemCollector) Samples() []SystemSample {
	return append([]SystemSample(nil), c.samples...)
}

// processCPUTime returns the process's cumulative CPU time from
// /proc/self/stat (utime+stime), or 0 when unavailable.
func processCPUTime() time.Duration {
	data, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesized comm: utime is field 14, stime 15
	// (1-indexed) in the full line.
	s := string(data)
	close := strings.LastIndexByte(s, ')')
	if close < 0 {
		return 0
	}
	fields := strings.Fields(s[close+1:])
	// fields[0] is state (field 3); utime is fields[11], stime fields[12].
	if len(fields) < 13 {
		return 0
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0
	}
	const hz = 100 // USER_HZ on virtually all Linux systems
	return time.Duration(utime+stime) * time.Second / hz
}

// processThreads returns the process's OS thread count from
// /proc/self/status, or 0 when unavailable.
func processThreads() int {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "Threads:"); ok {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err == nil {
				return n
			}
			return 0
		}
	}
	return 0
}

// processDiskIO returns cumulative bytes read/written from /proc/self/io,
// or zeros when unavailable.
func processDiskIO() (read, write int64) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "read_bytes:"); ok {
			read, _ = strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
		if v, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			write, _ = strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return read, write
}
