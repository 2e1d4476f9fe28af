package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// fingerprint identifies the machine and configuration a result file
// came from (ROADMAP item 1): two files compare only if these agree.
type fingerprint struct {
	GitRev       string  `json:"git_rev"`
	GoVersion    string  `json:"go_version"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Harts        int     `json:"harts"`
	CPUModel     string  `json:"cpu_model"`
	Seed         uint64  `json:"seed"`
	TimedSeconds float64 `json:"timed_seconds"`
	// Samples counts the ops behind each phase's quantiles.
	Samples map[string]int `json:"samples"`
}

func newFingerprint(seed uint64, seconds float64) fingerprint {
	return fingerprint{
		GitRev:       gitRev(),
		GoVersion:    runtime.Version(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Harts:        1,
		CPUModel:     cpuModel(),
		Seed:         seed,
		TimedSeconds: seconds,
		Samples:      map[string]int{},
	}
}

// gitRev is the revision the go tool stamped into the binary. A build
// outside a git checkout (the benchmark driver's copy) has none.
func gitRev() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
