//go:build !linux

package main

import "time"

// pinPrecise has no portable equivalent; sleeps use the runtime's timers.
func pinPrecise() {}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
