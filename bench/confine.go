package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// The benchmark runs on ONE CPU: itself (clients, checks, origin), the
// daemon it spawns and everything they start.
//
// On the 2-shared-vCPU sandboxes this is written for, a wake-up that
// crosses CPUs costs a hypervisor exit, and whether a request's
// client→daemon→client hand-offs cross CPUs is up to the guest
// scheduler, which changes its mind every few seconds. A probe with
// everything unpinned put daemon CPU per request on hot-obj anywhere
// between 36 and 57 µs on identical code and the p50 between 61 and
// 100 µs; forcing client and daemon onto different CPUs gave 70–84 µs of
// CPU; putting both on one CPU gave 25–28 µs. Two thirds of the unpinned
// number is the hypervisor, not prefetchd, and it is the part that moves.
//
// Confined to one CPU every hand-off is a plain context switch, the CPU
// never idles (some party to the closed loop is always runnable), and
// what is left is the cost of the code. The price is stated in
// README.md: no parallelism, so the benchmark says nothing about
// scaling across cores — which C ≤ nproc closed-loop clients could not
// show on this host anyway.

// confinedEnv marks a process that has already confined itself.
const confinedEnv = "BENCH_CONFINED_TO_CPU"

// cpuSet is the kernel's affinity mask, 1024 CPUs wide.
type cpuSet [16]uint64

// confine restricts this process to one CPU and re-executes it, so that
// the Go runtime starts over with one CPU visible (GOMAXPROCS 1, and
// every thread it creates inherits the mask) and so does every child.
// It picks the highest CPU it is allowed: CPU 0 is where a guest's
// housekeeping tends to run. In the re-executed process it returns the
// CPU number.
func confine() (cpu int, err error) {
	if v := os.Getenv(confinedEnv); v != "" {
		if n := runtime.NumCPU(); n != 1 {
			return 0, fmt.Errorf("%s is set but %d CPUs are visible", confinedEnv, n)
		}
		_, err := fmt.Sscan(v, &cpu)
		return cpu, err
	}
	// Affinity is per thread: hold this one until exec replaces the
	// process with it as the only thread.
	runtime.LockOSThread()
	var set cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu = -1
	for i := len(set) - 1; i >= 0 && cpu < 0; i-- {
		if set[i] != 0 {
			cpu = 64*i + bits.Len64(set[i]) - 1
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty CPU set")
	}
	set = cpuSet{}
	set[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 {
		return 0, fmt.Errorf("sched_setaffinity(cpu %d): %w", cpu, errno)
	}
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	env := append(os.Environ(), fmt.Sprintf("%s=%d", confinedEnv, cpu))
	return 0, fmt.Errorf("exec %s: %w", self, syscall.Exec(self, os.Args, env))
}
