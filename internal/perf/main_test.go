package perf

import (
	"os"
	"testing"

	"lcws/internal/testlock"
)

// TestMain holds the timing-gate lock exclusive, so the wall-clock
// gates below never measure while another of the module's CPU-heavy
// test packages runs (see package testlock).
func TestMain(m *testing.M) {
	release := testlock.Exclusive()
	code := m.Run()
	release()
	os.Exit(code)
}
