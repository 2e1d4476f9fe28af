package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// childArgs are the flags a parent passes down to per-workload children.
type childArgs struct {
	seed    uint64
	seconds float64
	mode    int
	outDir  string
}

// runChild runs one workload in a fresh process — so that the process
// globals behind the counters, the Go heap and VmHWM are that
// workload's alone — and returns its printed lines and parsed report.
func runChild(workload string, a childArgs) (stdout []byte, rep *report, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatUint(a.seed, 10),
		"-seconds", strconv.FormatFloat(a.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(a.mode),
		"-out", a.outDir)
	cmd.Stderr = os.Stderr
	stdout, err = cmd.Output()
	if err != nil {
		return stdout, nil, fmt.Errorf("%s: %w", workload, err)
	}
	rep, err = parseReport(stdout)
	return stdout, rep, err
}

// parseReport decodes the last line of a run's standard output.
func parseReport(stdout []byte) (*report, error) {
	lines := bytes.Split(bytes.TrimRight(stdout, "\n"), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("last line is not a report: %w", err)
	}
	return &rep, nil
}

// runAll runs every workload, one child each, and relays their output.
func runAll(a childArgs) int {
	status := 0
	for _, w := range allWorkloads {
		out, _, err := runChild(w.name, a)
		os.Stdout.Write(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "occlumbench: %v\n", err)
			status = 1
		}
	}
	return status
}

// aaTolerance is how far two runs of the same code may differ per gated
// metric: the exact count not at all, the near-exact one by 0.5 %, the
// rest by the bound BENCHMARK.json gives them.
func aaTolerance(d metricDef) float64 {
	switch d.Name {
	case "guest_insts_per_op":
		return 0
	case "alloc_kib_per_op":
		return 0.005
	}
	return d.Bound
}

// aaRow is one compared metric.
type aaRow struct {
	workload, name, unit string
	a, b, delta, tol     float64
}

func (r aaRow) ok() bool { return math.Abs(r.delta) <= r.tol }

// compareReports lines up the gated metrics of two runs.
func compareReports(workload string, a, b *report) []aaRow {
	rows := make([]aaRow, 0, len(endToEnd))
	for _, d := range endToEnd {
		va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
		rows = append(rows, aaRow{workload, d.Name, d.Unit, va, vb, relDelta(va, vb), aaTolerance(d)})
	}
	return rows
}

// runAA is the A/A check: every workload twice back to back on the same
// code and seed. It exits non-zero unless every gated metric agrees
// within its tolerance and both runs were correct.
func runAA(a childArgs) int {
	a.mode = modeEndToEnd
	status := 0
	fmt.Printf("%-10s %-20s %16s %16s %9s %8s  %s\n", "workload", "metric", "run A", "run B", "delta", "allowed", "verdict")
	for _, w := range allWorkloads {
		var reps [2]*report
		for i := range reps {
			run := a
			run.outDir = filepath.Join(a.outDir, "aa-"+string(rune('a'+i)))
			_, rep, err := runChild(w.name, run)
			if err != nil {
				fmt.Fprintf(os.Stderr, "occlumbench: %v\n", err)
				return 1
			}
			reps[i] = rep
		}
		for _, r := range compareReports(w.name, reps[0], reps[1]) {
			verdict := "same"
			if !r.ok() {
				verdict, status = "DIFFERS", 1
			}
			fmt.Printf("%-10s %-20s %16.4f %16.4f %+8.3f%% %7.2f%%  %s\n",
				r.workload, r.name, r.a, r.b, 100*r.delta, 100*r.tol, verdict)
		}
	}
	if status == 0 {
		fmt.Println("A/A: no significant change on any gated metric")
	} else {
		fmt.Println("A/A: FAILED — two runs of the same code disagree")
	}
	return status
}
