package pbbs

import (
	"os"
	"testing"

	"lcws/internal/testlock"
)

// TestMain holds the timing-gate lock shared: these tests load the CPU
// for seconds, and internal/perf's wall-clock gates wait for them (see
// package testlock).
func TestMain(m *testing.M) {
	release := testlock.Shared()
	code := m.Run()
	release()
	os.Exit(code)
}
