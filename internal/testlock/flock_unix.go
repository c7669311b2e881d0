//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package testlock

import (
	"os"
	"syscall"
)

func flock(f *os.File, exclusive bool) error {
	how := syscall.LOCK_SH
	if exclusive {
		how = syscall.LOCK_EX
	}
	for {
		if err := syscall.Flock(int(f.Fd()), how); err != syscall.EINTR {
			return err
		}
	}
}
