package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// ticker is a periodic timer read through the runtime's network poller.
// time.Sleep and time.Ticker can wake up to ~1 ms late in a mostly idle
// Go process, because the poller's wait is rounded to whole
// milliseconds. A timerfd instead wakes the poller when it fires, within
// tens of µs, and holds no P while the goroutine waits.
type ticker struct {
	f   *os.File
	t0  time.Time // tick k is due at t0 + k·period
	n   uint64    // ticks due so far
	buf [8]byte
}

func newTicker(period time.Duration) (*ticker, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	p := syscall.NsecToTimespec(int64(period))
	spec := [2]syscall.Timespec{p, p} // it_interval, it_value
	t := &ticker{t0: time.Now()}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, fmt.Errorf("timerfd_settime: %w", errno)
	}
	t.f = os.NewFile(fd, "timerfd")
	return t, nil
}

// wait blocks until the next tick fires and returns how many ticks are
// due so far, counting any it slept through.
func (t *ticker) wait() (uint64, error) {
	if _, err := io.ReadFull(t.f, t.buf[:]); err != nil {
		return 0, err
	}
	t.n += binary.NativeEndian.Uint64(t.buf[:])
	return t.n, nil
}

func (t *ticker) close() { t.f.Close() }
