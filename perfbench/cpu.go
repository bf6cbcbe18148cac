package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the CPU time (user + system) this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the aggregate CPU line of /proc/stat: total ticks and
// steal ticks (time the hypervisor gave this machine's CPUs to others).
func hostTicks() (total, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64) // /proc/stat fields are integers
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealMeter measures the share of host CPU time stolen by the
// hypervisor over an interval: a noisy-neighbour indicator printed with
// every result, since it slows wall-clock figures without any change in
// the program.
type stealMeter struct{ total, steal int64 }

func startSteal() stealMeter {
	t, s := hostTicks()
	return stealMeter{t, s}
}

// pct is the stolen share of host CPU time since the meter started, in
// percent.
func (m stealMeter) pct() float64 { return m.pctTo(startSteal()) }

// pctTo is the stolen share of host CPU time between two readings, in
// percent.
func (m stealMeter) pctTo(later stealMeter) float64 {
	if later.total == m.total {
		return 0
	}
	return 100 * float64(later.steal-m.steal) / float64(later.total-m.total)
}

// procCPU is the CPU time every live thread of another process has
// used, from /proc/<pid>/task/*/schedstat (nanoseconds on CPU).
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited since ReadDir
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s schedstat %q: %w", t.Name(), data, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// sampler calls read periodically while a window runs and keeps every
// value with the time it was read and the host's CPU ticks then.
type sampler struct {
	read func() (float64, error)
	at   []time.Time
	v    []float64
	host []stealMeter
	err  error
	stop chan struct{}
	done chan struct{}
}

func startSampler(period time.Duration, read func() (float64, error)) *sampler {
	s := &sampler{read: read, stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *sampler) sample() {
	v, err := s.read()
	if err != nil {
		s.err = err
		return
	}
	s.at = append(s.at, time.Now())
	s.v = append(s.v, v)
	s.host = append(s.host, startSteal())
}

// finish takes a last sample, stops the sampler and returns the first
// read error.
func (s *sampler) finish() error {
	close(s.stop)
	<-s.done
	s.sample()
	if s.err == nil && len(s.v) == 0 {
		s.err = fmt.Errorf("no sample was read")
	}
	return s.err
}

// cpuSampler samples a process's cumulative CPU time, in ms, four
// times a second, so a window's cost can be split into 250 ms intervals.
func cpuSampler(cpu func() (time.Duration, error)) *sampler {
	return startSampler(250*time.Millisecond, func() (float64, error) {
		c, err := cpu()
		return ms(c), err
	})
}

// rssSampler samples a process's resident set size, in MB, ten times a
// second. Its median is the memory the process holds while it works:
// unlike the peak, which one badly timed garbage collection can move by
// 15%, and the mean, which the release of set-up memory in the first
// seconds of a window moves, the median of a GC sawtooth holds still.
func rssSampler(pid string) *sampler {
	return startSampler(100*time.Millisecond, func() (float64, error) {
		kb, err := procStatusKB(pid, "VmRSS:")
		return kb / 1024, err
	})
}

// spent is the growth of a cumulative sample over the whole window.
func (s *sampler) spent() float64 { return s.v[len(s.v)-1] - s.v[0] }

// maxStealPct is the most CPU time, in percent of the host's, the
// hypervisor may steal in a sampler interval for the interval to count
// toward a calm figure. /proc/stat counts in 10 ms ticks, so on 2 CPUs a
// 250 ms interval has 50 ticks and 5% lets two of them be stolen.
const maxStealPct = 5

// calm is the growth of the cumulative sample per job over the calm
// intervals of a window: those in which the hypervisor stole at most
// maxStealPct of host CPU time. A stolen interval makes a job costlier
// in CPU time too, through runtime spinning and cache contention, so
// those intervals are left out by the noise they measurably carry, not
// by their cost; every other interval counts, whatever it cost. done
// gives each job's completion time. It also returns the share of jobs
// the calm intervals hold; when that is under half, the figure is the
// whole window's.
func (s *sampler) calm(done []time.Time) (perJob, jobShare float64) {
	grew, jobs := 0.0, 0
	for i := 1; i < len(s.at); i++ {
		if s.host[i-1].pctTo(s.host[i]) > maxStealPct {
			continue
		}
		for _, t := range done {
			if !t.Before(s.at[i-1]) && t.Before(s.at[i]) {
				jobs++
			}
		}
		grew += s.v[i] - s.v[i-1]
	}
	jobShare = float64(jobs) / float64(max(len(done), 1))
	if jobShare < 0.5 {
		return s.spent() / float64(max(len(done), 1)), jobShare
	}
	return grew / float64(jobs), jobShare
}
