package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// rssSampler follows the resident set size of this process through a
// phase. peak_rss_mib is the 90th percentile of its samples — the level
// the resident set stays under nine tenths of the time — rather than
// VmHWM or the largest sample. VmHWM is set during set-up on three of
// the five workloads, by garbage whose size depends on when the Go
// collector happened to run (sizing: fs_read 161–208 MiB across three
// runs of the same code), and would hide the steady-state footprint a
// later change can actually move. The largest sample is one collector
// overshoot (fs_write 67–83 MiB over ten runs, quartiles 10.8 % apart;
// their p90 2.2 %).
type rssSampler struct {
	statm    *os.File
	buf      [128]byte
	pageSize float64
	next     time.Time
	mib      []float64
}

// rssEvery is the sampling period; a sample is one pread of
// /proc/self/statm (≈2 µs), taken between two ops.
const rssEvery = 20 * time.Millisecond

func newRSSSampler() *rssSampler {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return &rssSampler{}
	}
	return &rssSampler{
		statm:    f,
		pageSize: float64(os.Getpagesize()),
		// Room for 80 s of samples, so that the sampler allocates nothing
		// while a phase runs.
		mib: make([]float64, 0, 4096),
	}
}

// tick samples if a period has passed since the last sample.
func (r *rssSampler) tick(now time.Time) {
	if now.Before(r.next) {
		return
	}
	r.next = now.Add(rssEvery)
	r.sample()
}

func (r *rssSampler) sample() {
	if r.statm == nil {
		return
	}
	n, _ := r.statm.ReadAt(r.buf[:], 0)
	// statm: size resident shared text lib data dt, in pages.
	if flds := strings.Fields(string(r.buf[:n])); len(flds) > 1 {
		pages, _ := strconv.ParseFloat(flds[1], 64)
		r.mib = append(r.mib, pages*r.pageSize/(1<<20))
	}
}

// close takes a last sample, releases the file and returns the p90.
func (r *rssSampler) close() float64 {
	r.sample()
	if r.statm != nil {
		r.statm.Close()
	}
	return quantile(sortedCopy(r.mib), 0.90)
}

// vmHWMMiB is the process's resident-set high-water mark since it
// started, set-up included.
func vmHWMMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if flds := strings.Fields(rest); len(flds) > 0 {
				kib, _ := strconv.ParseFloat(flds[0], 64)
				return kib / 1024
			}
		}
	}
	return 0
}

// cpuSteal returns the cumulative steal and total CPU time of the
// machine in clock ticks (first line of /proc/stat): the share of time
// the hypervisor ran someone else while this VM wanted to run.
func cpuSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	flds := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal guest guest_nice
	for i, f := range flds {
		if i == 0 || i > 8 {
			continue
		}
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
