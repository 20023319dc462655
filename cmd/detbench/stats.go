package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile is the ceil-rank order statistic: the smallest sample with at
// least a fraction q of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) computes them (its default "exclusive"
// method), so -compare agrees with scripts that use it.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := slices.Sorted(slices.Values(values))
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	ld, m := len(d), len(d)+1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the user+system CPU time of process pid so far; pid 0 is
// this process.
func cpuTime(pid int) (time.Duration, error) {
	if pid == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0, fmt.Errorf("getrusage: %w", err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line, in USER_HZ (100 on Linux) ticks.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		t, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += t
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// memMB reads one kB field of /proc/<pid>/status, such as VmRSS (resident
// set) or VmHWM (its peak), in MB; pid 0 is this process.
func memMB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, field)
}

// sampleRSS reads the resident set of pid every 250 ms until the returned
// function is called; that function returns the median sample in MB.
func sampleRSS(pid int) func() (float64, error) {
	stop, done := make(chan struct{}), make(chan struct{})
	var samples []float64
	var err error
	go func() {
		defer close(done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			var mb float64
			if mb, err = memMB(pid, "VmRSS"); err != nil {
				return
			}
			samples = append(samples, mb)
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() (float64, error) {
		close(stop)
		<-done
		return median(samples), err
	}
}

// calibrate times a fixed integer loop that touches no memory, taking the
// median of three passes. It tracks how fast the host runs this process
// right now, so drift on a shared machine shows next to the numbers; no
// metric is normalised by it.
func calibrate() float64 {
	var t [3]float64
	for i := range t {
		start := time.Now()
		x := uint64(i) + 1
		for j := 0; j < 1<<24; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
		t[i] = ms(time.Since(start))
	}
	slices.Sort(t[:])
	return t[1]
}

var calibSink uint64

// mix64 is the splitmix64 finaliser: a deterministic pseudo-random bit
// source for plan decisions that must not line up with the cell order.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
