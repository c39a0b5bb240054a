package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// setRecord is one full set: every workload run the same number of times,
// each run in its own process, with where it ran.
type setRecord struct {
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	Trace   int         `json:"trace"`
	Rounds  int         `json:"rounds"`
	Env     envInfo     `json:"env"`
	Runs    []runRecord `json:"runs"`
}

// runRecord is one workload run: its result line, and every measurement
// it printed, the result's metrics included.
type runRecord struct {
	Workload string                 `json:"workload"`
	Result   result                 `json:"result"`
	Printed  map[string]metricValue `json:"printed"`
}

// runSet runs every workload in a fresh process of this binary, so
// memory, GC and memo state never carry from one workload to the next, and
// writes the set record to out/set-seed<seed>.json (layers-seed<seed>.json
// for a traced set). With rounds above one it cycles through the workloads
// that many times, so a drift in the host's speed reaches every workload
// alike and each gets several samples.
func runSet(seed uint64, seconds float64, traceMode, rounds int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	rec := setRecord{Seed: seed, Seconds: seconds, Trace: traceMode, Rounds: rounds, Env: currentEnv()}
	for k := 0; k < rounds*len(workloads); k++ {
		w := workloads[k%len(workloads)]
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", strconv.Itoa(traceMode), "-out", out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if _, err := os.Stdout.Write(stdout); err != nil {
			return err
		}
		run, err := parseRun(w.name, stdout)
		if err != nil {
			return err
		}
		rec.Runs = append(rec.Runs, run)
	}
	kind := "set"
	if traceMode == 1 {
		kind = "layers"
	}
	path := filepath.Join(out, fmt.Sprintf("%s-seed%d.json", kind, seed))
	blob, err := json.MarshalIndent(rec, "", "\t")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "bench: wrote", path)
	return nil
}

// parseRun reads a run's output: "workload metric value unit" lines, then
// the result line.
func parseRun(workload string, stdout []byte) (runRecord, error) {
	run := runRecord{Workload: workload, Printed: make(map[string]metricValue)}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.Result); err != nil {
		return run, fmt.Errorf("%s: result line: %w", workload, err)
	}
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != workload {
			return run, fmt.Errorf("%s: unexpected output line %q", workload, line)
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return run, fmt.Errorf("%s: %q: %w", workload, line, err)
		}
		run.Printed[f[1]] = metricValue{Value: v, Unit: f[3]}
	}
	return run, nil
}

// nonTestGoLines counts the lines of the repository's non-test Go files
// under root, leaving out the benchmark itself and its build directory;
// -1 when the walk fails.
func nonTestGoLines(root string) int {
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "bench":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		blob, err := os.ReadFile(path)
		n += bytes.Count(blob, []byte("\n"))
		return err
	})
	if err != nil {
		return -1
	}
	return n
}
