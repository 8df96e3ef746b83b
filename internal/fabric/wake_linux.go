package fabric

import (
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The nudge behind SleepUntilExact. The Go runtime sleeps in epoll_wait with
// a timeout in whole milliseconds, so an idle process fires a timer up to a
// millisecond late. A timerfd armed for the timer's instant and registered
// with the runtime's poller makes epoll_wait return on time, and the runtime
// then fires the timer, which is what the sleeper waits on. No goroutine reads
// the fd: it is armed and drained through SyscallConn().Control, and never
// through Fd(), which would put it back in blocking mode and off the poller.

// maxWakeFDs bounds the timerfds open at once, armed or free: an exact wait
// beyond them, like one whose timerfd_create fails, waits on the plain timer.
const maxWakeFDs = 64

// clockMonotonic is CLOCK_MONOTONIC, the clock of the runtime's timers.
const clockMonotonic = 1

// wakeFD is a non-blocking timerfd registered with the runtime's poller.
type wakeFD struct {
	f  *os.File
	rc syscall.RawConn
}

// wakeFDs is the free list of disarmed, drained timerfds, and open counts
// every timerfd open, free or armed.
var wakeFDs struct {
	sync.Mutex
	free []*wakeFD
	open int
}

// itimerspec is the kernel's struct itimerspec.
type itimerspec struct {
	interval, value syscall.Timespec
}

// armWake arms a timerfd for the instant t, or returns nil when none is to be
// had or t has passed. The caller releases it once its wait is over.
func armWake(t time.Time) *wakeFD {
	w := takeWakeFD()
	if w == nil {
		return nil
	}
	// The timer the caller waits on fires at t; measured from a later now,
	// the fd fires no earlier, so the runtime never wakes before the timer is
	// due.
	d := time.Until(t)
	if d <= 0 || w.set(d) != nil {
		w.release()
		return nil
	}
	return w
}

// takeWakeFD takes a timerfd off the free list, or opens one while fewer than
// maxWakeFDs are open; nil when neither works.
func takeWakeFD() *wakeFD {
	wakeFDs.Lock()
	if n := len(wakeFDs.free); n > 0 {
		w := wakeFDs.free[n-1]
		wakeFDs.free = wakeFDs.free[:n-1]
		wakeFDs.Unlock()
		return w
	}
	if wakeFDs.open == maxWakeFDs {
		wakeFDs.Unlock()
		return nil
	}
	wakeFDs.open++
	wakeFDs.Unlock()
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		closedWakeFD()
		return nil
	}
	// A non-blocking fd is registered with the poller by NewFile.
	f := os.NewFile(fd, "timerfd")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		closedWakeFD()
		return nil
	}
	return &wakeFD{f: f, rc: rc}
}

// closedWakeFD counts one timerfd fewer open.
func closedWakeFD() {
	wakeFDs.Lock()
	wakeFDs.open--
	wakeFDs.Unlock()
}

// set arms the timerfd to expire once, d from now; d = 0 disarms it.
func (w *wakeFD) set(d time.Duration) error {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	var errno syscall.Errno
	err := w.rc.Control(func(fd uintptr) {
		_, _, errno = syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	})
	if err != nil {
		return err
	}
	if errno != 0 {
		return errno
	}
	return nil
}

// release disarms the timerfd, drains its expiry count and puts it back on
// the free list, so that the next wait it serves starts from a quiet fd; a
// timerfd that fails either is closed.
func (w *wakeFD) release() {
	var count [8]byte
	err := w.set(0)
	if err == nil {
		err = w.rc.Control(func(fd uintptr) {
			// EAGAIN when it was disarmed before it expired.
			_, _ = syscall.Read(int(fd), count[:])
		})
	}
	if err != nil {
		w.f.Close()
		closedWakeFD()
		return
	}
	wakeFDs.Lock()
	wakeFDs.free = append(wakeFDs.free, w)
	wakeFDs.Unlock()
}
