//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package testlock

import (
	"errors"
	"os"
)

func flock(*os.File, bool) error { return errors.ErrUnsupported }
