package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// burnFlag is the hidden argument that turns a bench process into the
// idle-time spinner.
const burnFlag = "-burn-idle-cpu"

// schedIdle is SCHED_IDLE from <linux/sched.h>.
const schedIdle = 5

// burn is the spinner's main: drop to SCHED_IDLE and loop until killed.
func burn() {
	runtime.LockOSThread()
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		// A spinner at normal priority would take half the CPU from the
		// processes under test.
		fmt.Fprintln(os.Stderr, "bench: sched_setscheduler(SCHED_IDLE):", errno)
		os.Exit(1)
	}
	for {
	}
}

// keepAwake starts the spinner on this process's (one) CPU and returns
// the function that kills and reaps it.
func keepAwake() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := exec.Command(self, burnFlag)
	c.Stderr = os.Stderr
	c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.Start(); err != nil {
		return nil, fmt.Errorf("idle-time spinner: %w", err)
	}
	return func() {
		_ = c.Process.Kill() // already dead is fine; Wait reaps either way
		_ = c.Wait()         // killed: the status carries nothing
	}, nil
}
