package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// now is the benchmark's only clock read. Span stamps, oracle-call
// timers, the run deadline and the service's latency samples all go
// through it, so every wall-clock figure shares one monotonic base.
func now() time.Time {
	//lint:ignore walltime the benchmark's single clock: timing is its product, never part of a deterministic artifact
	return time.Now()
}

// cpuNow reads the process's on-CPU time: user plus system time of
// every thread, GC workers included (getrusage RUSAGE_SELF). Unlike the
// wall clock it does not advance while the hypervisor steals the vCPU,
// which is why every attack-workload timing is taken from it.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSeconds runs f and returns the process CPU seconds it took.
func cpuSeconds(f func()) float64 {
	c0 := cpuNow()
	f()
	return (cpuNow() - c0).Seconds()
}

// cpuTicks is the aggregate "cpu" line of /proc/stat: the total of all
// its fields and the steal field, in clock ticks.
type cpuTicks struct {
	total, steal uint64
}

// parseProcStat reads the aggregate cpu line of a /proc/stat image.
// The fields are user nice system idle iowait irq softirq steal
// [guest guest_nice]; guest time is already counted in user, so only
// the first eight make up the total.
func parseProcStat(r io.Reader) (cpuTicks, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTicks{}, fmt.Errorf("perfbench: /proc/stat cpu line has %d fields, want >= 9", len(f))
		}
		var t cpuTicks
		for i, s := range f[1:9] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return cpuTicks{}, fmt.Errorf("perfbench: /proc/stat field %d: %v", i+1, err)
			}
			t.total += v
			if i == 7 {
				t.steal = v
			}
		}
		return t, nil
	}
	if err := sc.Err(); err != nil {
		return cpuTicks{}, err
	}
	return cpuTicks{}, fmt.Errorf("perfbench: /proc/stat has no aggregate cpu line")
}

// readProcStat samples the host's CPU tick counters; ok is false where
// /proc/stat is unavailable (steal is then reported as zero).
func readProcStat() (cpuTicks, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	defer f.Close()
	t, err := parseProcStat(f)
	return t, err == nil
}

// stealFrac is the share of host CPU time stolen by the hypervisor
// between two samples.
func stealFrac(a, b cpuTicks) float64 {
	if b.total <= a.total || b.steal < a.steal {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
