package workloads

import (
	"os"
	"testing"

	"repro/internal/libos"
)

// TestMain runs the package's workloads — pipelines, web servers,
// slowloris reaping, the cross-kernel conformance transcript — with
// libos.CheckTeardownZero on: every SIP exit on the Occlum kernel
// re-reads its whole domain and panics on a byte the dirty-page scrub
// left behind.
func TestMain(m *testing.M) {
	libos.CheckTeardownZero(true)
	os.Exit(m.Run())
}
