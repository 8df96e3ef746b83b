//go:build !linux

package fabric

import "time"

// wakeFD is Linux's timerfd nudge (wake_linux.go); elsewhere SleepUntilExact
// waits on the plain timer.
type wakeFD struct{}

// armWake has nothing to arm outside Linux.
func armWake(time.Time) *wakeFD { return nil }

// release has nothing to give back outside Linux.
func (*wakeFD) release() {}
