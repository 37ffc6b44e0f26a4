package main

import (
	"math/bits"
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity(2) CPU set.
type cpuMask [16]uint64

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

func setAffinity(m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// lastCPU is the highest-numbered CPU this process may run on.
func lastCPU() (int, error) {
	m, err := getAffinity()
	if err != nil {
		return 0, err
	}
	for w := len(m) - 1; w >= 0; w-- {
		if m[w] != 0 {
			return w*64 + 63 - bits.LeadingZeros64(m[w]), nil
		}
	}
	return 0, nil
}

// startPinned runs start with the calling OS thread bound to cpu, so the
// process it forks inherits that single-CPU affinity, then restores the
// thread's own affinity.
func startPinned(cpu int, start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := getAffinity()
	if err != nil {
		return err
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := setAffinity(one); err != nil {
		return err
	}
	defer setAffinity(old)
	return start()
}
