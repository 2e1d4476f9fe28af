package libos

import (
	"os"
	"testing"
)

// TestMain runs every spawn and exit of this package's tests — clean
// exits, signal kills, MMDSFI bound faults, failed loads — under the
// teardown-zero check: freeDomain re-reads the whole domain and panics
// on any byte the dirty-page scrub left behind.
func TestMain(m *testing.M) {
	CheckTeardownZero(true)
	os.Exit(m.Run())
}
