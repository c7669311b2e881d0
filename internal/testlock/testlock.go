// Package testlock keeps this module's wall-clock test gates from
// timing while its CPU-heavy test packages run.
//
// `go test ./...` runs up to GOMAXPROCS test binaries at once, so the
// timing gates of internal/perf used to measure while fig's simulation
// sweeps, pbbs's kernels or the model checker held the other
// processors. Load normalisation cancels a uniformly slower machine,
// not a neighbour that takes the processor away mid-window, and a
// contended run reads the same as a regression. The lock is a flock on
// one file in the temporary directory: packages whose tests load the
// CPU for seconds hold it shared for their whole run, and the package
// that times the scheduler holds it exclusive, so it measures only
// while none of them runs. Where flock is unavailable the lock is a
// no-op and the gates time under whatever load there is, as before.
package testlock

import (
	"os"
	"path/filepath"
)

// Shared blocks until no package holds the lock exclusive, takes it
// shared, and returns its release.
func Shared() (release func()) { return hold(false) }

// Exclusive blocks until no package holds the lock, takes it
// exclusive, and returns its release.
func Exclusive() (release func()) { return hold(true) }

func hold(exclusive bool) func() {
	f, err := os.OpenFile(filepath.Join(os.TempDir(), "lcws-testlock"), os.O_CREATE|os.O_RDWR, 0o666)
	if err != nil {
		return func() {}
	}
	if err := flock(f, exclusive); err != nil {
		f.Close()
		return func() {}
	}
	// Closing the descriptor drops the flock.
	return func() { f.Close() }
}
