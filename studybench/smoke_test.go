package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"fast/internal/dispatch"
)

// TestSmoke builds the benchmark and FAST's binaries, then runs every
// workload at its tiny smoke size, traced and untraced, and checks the
// printed result carries every metric, passes its output checks and
// counts no failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs every workload")
	}
	bin := buildBinaries(t, "./cmd/fast-worker")
	if out, err := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), ".").CombinedOutput(); err != nil {
		t.Fatalf("go build studybench: %v\n%s", err, out)
	}
	for _, w := range workloadTable {
		for _, traced := range []bool{false, true} {
			trace, defs := "0", endToEnd
			if traced {
				trace, defs = "1", perLayer
			}
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				cmd := exec.Command(filepath.Join(bin, "studybench"), "-workload", w.name, "-seed", "3",
					"-seconds", "1", "-trace", trace, "-smoke", "-bin", bin, "-work", t.TempDir())
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s missing or in the wrong unit: %+v", d.name, m)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

// buildBinaries builds the named packages of the root module (paths
// from the repository root) into a fresh directory and returns it.
func buildBinaries(t *testing.T, pkgs ...string) string {
	t.Helper()
	bin := t.TempDir()
	for _, pkg := range pkgs {
		cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), pkg)
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return bin
}

// TestClosePoolEndsAfterLateSpawn closes a pool while both slots are
// still spawning their workers. Pool.Close alone then waits forever on
// the connections installed after it; closePool must still return, by
// killing those workers after closeWait.
func TestClosePoolEndsAfterLateSpawn(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fast-worker and waits out closeWait")
	}
	bin := buildBinaries(t, "./cmd/fast-worker")
	release := make(chan struct{})
	pool, err := dispatch.New(dispatch.Options{
		Workers:   2,
		WorkerCmd: []string{filepath.Join(bin, "fast-worker")},
		WrapDialer: func(d dispatch.Dialer) dispatch.Dialer {
			return func(slot, attempt int) (dispatch.Transport, error) {
				<-release // spawn only once Close has begun
				return d(slot, attempt)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		closePool(pool)
		close(done)
	}()
	time.Sleep(100 * time.Millisecond)
	close(release)
	select {
	case <-done:
	case <-time.After(closeWait + 20*time.Second):
		t.Fatal("closePool did not return")
	}
	if pids := childPids(); len(pids) != 0 {
		t.Errorf("workers %v still running after closePool", pids)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the
// benchmark's metric tables in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var listed, table []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloadTable {
		table = append(table, w.name)
	}
	if !slices.Equal(listed, table) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark's workloads %v", listed, table)
	}
}
