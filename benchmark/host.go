package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// hostInfo names the machine and build a result was measured on; numbers
// from different hosts are not comparable.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
}

func host() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     kernelRelease(),
		Commit:     gitCommit(),
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// gitCommit reads the checked-out commit from .git in the working
// directory, without running git; an exported tree has none.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// procUsage is the process's resource use so far: CPU time in microseconds
// (user + system), peak resident set in MB, and heap allocation count.
type procUsage struct {
	CPUus   float64
	PeakMB  float64
	Mallocs uint64
}

func usage() procUsage {
	var ru syscall.Rusage
	var u procUsage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.CPUus = float64(ru.Utime.Sec+ru.Stime.Sec)*1e6 + float64(ru.Utime.Usec+ru.Stime.Usec)
		u.PeakMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.Mallocs = ms.Mallocs
	return u
}

// preciseSleep blocks the calling thread for d without using a processor.
// The Go runtime wakes an idle process's timers on a millisecond grid, so
// time.Sleep(500µs) takes 1.1 ms on this host; nanosleep is late by tens of
// microseconds only. The open-loop pacer and the modelled fsync both need
// the finer grain.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
