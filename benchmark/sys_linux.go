package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// clock converts time.Time to CLOCK_MONOTONIC nanoseconds. The generator
// and the server are two processes on one host, and this is the one
// clock they share that no NTP step can move, so spans stamped on both
// sides join without skew.
type clock struct {
	t0   time.Time
	raw0 int64
}

func newClock() clock {
	var ts syscall.Timespec
	const clockMonotonic = 1
	t0 := time.Now()
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockMonotonic, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime: " + e.Error())
	}
	return clock{t0: t0, raw0: ts.Nano()}
}

func (c clock) at(t time.Time) int64 { return c.raw0 + int64(t.Sub(c.t0)) }
func (c clock) now() int64           { return c.at(time.Now()) }

// spinWindow is how long before a due time the pacer stops sleeping and
// spins: above the wake-up latency of nanosleep on a shared VM (tens of
// µs) and far below Go's ~1 ms time.Sleep granularity.
const spinWindow = 100 * time.Microsecond

// tightenTimerSlack drops the calling thread's timer slack from the
// 50 µs default to 1 ns so nanosleep returns when asked. Call it on a
// locked OS thread.
func tightenTimerSlack() {
	const prSetTimerslack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
}

// sleepUntil returns at due (CLOCK_MONOTONIC ns): nanosleep to within
// spinWindow, then spin on the clock. It never yields to the Go
// scheduler; the caller holds a locked OS thread of its own.
func (c clock) sleepUntil(due int64) {
	for {
		d := due - c.now()
		if d <= 0 {
			return
		}
		if d > int64(spinWindow) {
			ts := syscall.NsecToTimespec(d - int64(spinWindow))
			syscall.Nanosleep(&ts, nil)
		}
	}
}

// procUsage is a process's CPU time and voluntary context switches.
type procUsage struct {
	userNs, sysNs int64
	volCtxSw      int64
}

// readProcUsage reads utime/stime from /proc/<pid>/stat and sums
// voluntary_ctxt_switches over the process's threads.
func readProcUsage(pid int) (procUsage, error) {
	var u procUsage
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return u, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	const tickNs = int64(time.Second) / 100 // USER_HZ is 100 on every Linux ABI
	u.userNs, u.sysNs = utime*tickNs, stime*tickNs

	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil {
		return u, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		const key = "\nvoluntary_ctxt_switches:"
		s := string(b)
		if i := strings.Index(s, key); i >= 0 {
			rest := s[i+len(key):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				rest = rest[:j]
			}
			n, _ := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			u.volCtxSw += n
		}
	}
	return u, nil
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
