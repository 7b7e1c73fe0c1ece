//go:build linux

package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pinPrecise locks the calling goroutine to its thread for the rest of
// its life and lowers the thread's timer slack to 1µs, so sleepUntil on
// it overshoots by tens of microseconds. The runtime's own timers round
// sub-millisecond sleeps up to about a millisecond, which would dominate
// the latency of a request paced every few hundred microseconds. The
// thread exits with the goroutine, taking the changed slack with it.
func pinPrecise() {
	runtime.LockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
}

// sleepUntil blocks the thread in nanosleep until t.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
