package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the tests check the output
// against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// serveBin is the edb-serve binary TestMain builds for every test.
var serveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "edbbench-serve")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serveBin = filepath.Join(dir, "edb-serve")
	out, err := exec.Command("go", "build", "-o", serveBin, "edb/cmd/edb-serve").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "building edb-serve: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinyRun runs one workload at smoke-test size.
func tinyRun(t *testing.T, name string, traced bool, p pins) (*result, string) {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("workload %q not defined", name)
	}
	var log bytes.Buffer
	cfg := &config{
		workload: w,
		seed:     7,
		seconds:  8,
		traced:   traced,
		serveBin: serveBin,
		workDir:  t.TempDir(),
		pins:     p,
		tiny:     true,
		log:      &log,
	}
	res, err := execute(cfg)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, log.String())
	}
	return res, log.String()
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that the run passes its checks and prints exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, log := tinyRun(t, w.Name, traced, p)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, log)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestCorruptedPinFails: a run whose pinned report digest is wrong must
// count failed operations and report itself incorrect.
func TestCorruptedPinFails(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	flip := "0"
	if p.ReportSHA256[0] == '0' {
		flip = "1"
	}
	p.ReportSHA256 = flip + p.ReportSHA256[1:]
	res, _ := tinyRun(t, workloads[0].name, false, p)
	if res.Correct || res.Failed == 0 {
		t.Errorf("corrupted pin: correct=%v failed=%d, want a failed run", res.Correct, res.Failed)
	}
}
