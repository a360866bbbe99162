package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a tail figure resting on fewer is one slow sample, not a tail.
const minBeyond = 10

// tailCandidates are the percentiles the tail rule chooses among, highest
// first.
var tailCandidates = []float64{0.999, 0.99, 0.9, 0.5}

// dist collects samples of one quantity.
type dist struct {
	vals   []float64
	sorted bool
}

func (d *dist) add(v float64) {
	d.vals = append(d.vals, v)
	d.sorted = false
}

func (d *dist) n() int { return len(d.vals) }

// q returns the nearest-rank p-quantile, or 0 with no samples.
func (d *dist) q(p float64) float64 {
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
	return quantile(d.vals, p)
}

// rank returns the 1-based nearest rank of the p-quantile among n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank p-quantile of sorted, or 0 when empty.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// reportable reports whether at least minBeyond of n samples lie beyond
// the p-quantile.
func reportable(p float64, n int) bool {
	return n > 0 && n-rank(p, n) >= minBeyond
}

// tailPercentile returns the highest candidate percentile with at least
// minBeyond samples beyond it among n, or 0 when even the median has too
// few.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if reportable(p, n) {
			return p
		}
	}
	return 0
}

// median returns the median of vals (the mean of the middle two for an
// even count), or 0 when empty. Used for per-run repetitions, not latency
// samples.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; the
// kernel fixes it at 100 on every architecture Go targets on Linux.
const clockTicks = 100

// procCPU is a process's cumulative user+system CPU time in seconds, from
// the utime and stime fields of /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name in field 2 may hold spaces and
// parentheses, so fields are counted from its closing parenthesis.
func parseStatCPU(b []byte) (float64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state), so field k is f[k-3].
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return float64(ut+st) / clockTicks, nil
}

// procKV reads a "key: value" /proc file (io, status) into a map of the
// leading integer of each value; /proc/<pid>/status sizes are in kB.
func procKV(path string) (map[string]int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseKV(b), nil
}

func parseKV(b []byte) map[string]int64 {
	out := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			continue
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(k)] = n
	}
	return out
}

// ioCounters are the write-side fields of /proc/<pid>/io: bytes passed to
// write-family syscalls and the number of those calls, sockets included.
type ioCounters struct {
	wchar, syscw int64
}

func procIO(pid int) (ioCounters, error) {
	kv, err := procKV(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return ioCounters{}, err
	}
	w, ok1 := kv["wchar"]
	s, ok2 := kv["syscw"]
	if !ok1 || !ok2 {
		return ioCounters{}, fmt.Errorf("/proc/%d/io: no wchar/syscw", pid)
	}
	return ioCounters{wchar: w, syscw: s}, nil
}

// peakRSSMiB is a live process's peak resident set (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	kv, err := procKV(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, ok := kv["VmHWM"]
	if !ok {
		return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
	}
	return float64(kb) / 1024, nil
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
