package main

// The study workloads: cold Pareto studies, each in a fresh child
// process, back to back for the run's length.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// setupProbes is how many extra cold starts a study run times, after
// setupWarmups untimed ones.
const (
	setupProbes  = 48
	setupWarmups = 2
)

func runStudies(wl workload, o runOpts, t *tally, tr *tracer) error {
	base, err := tpuBaseline(wl.workloads)
	if err != nil {
		return err
	}
	// The seed orders the panel; every run measures whole rounds of it.
	order := rand.New(rand.NewSource(o.seed)).Perm(len(wl.panel))
	var setup, latency, rss, ratios []float64
	var trials, studyWall float64
	// Cold-start probes: each execs a study process that stops at its
	// first told batch, so set-up time has enough samples for a median.
	// The first few are untimed: they load the binaries into the page
	// cache, which a user's repeated studies find warm as well.
	for i := -setupWarmups; i < setupProbes; i++ {
		t0 := time.Now()
		out, err := execChild(o.self, childSpec{
			Label: fmt.Sprintf("%s-setup%d", wl.name, i), Workloads: wl.workloads, Trials: wl.trials,
			Seed: wl.panel[(i+setupWarmups)%len(wl.panel)], Parallelism: 2, Workers: wl.workers,
			WorkerBin: filepath.Join(o.binDir, "fast-worker"), SetupOnly: true,
		})
		if err != nil || out.FirstBatch == 0 {
			return fmt.Errorf("set-up probe: %v %s", err, out.RunError)
		}
		if i >= 0 {
			setup = append(setup, float64(out.FirstBatch-t0.UnixNano())/1e9)
		}
	}
	// A run measures a fixed number of whole rounds, so every run does
	// the same work whatever the machine's speed.
	rounds := max(1, int(math.Round(o.seconds/wl.roundS)))
	for round := 0; round < rounds; round++ {
		for _, pi := range order {
			sp := childSpec{
				Label:          fmt.Sprintf("%s-r%d-s%d", wl.name, round, wl.panel[pi]),
				Workloads:      wl.workloads,
				Trials:         wl.trials,
				Seed:           wl.panel[pi],
				Parallelism:    2,
				Workers:        wl.workers,
				WorkerBin:      filepath.Join(o.binDir, "fast-worker"),
				ILPDeadlineSec: wl.ilpDeadl,
				Trace:          o.trace,
			}
			t.attempted++
			t0 := time.Now()
			out, err := execChild(o.self, sp)
			if err == nil && out.RunError != "" {
				err = fmt.Errorf("%s", out.RunError)
			}
			if err != nil {
				t.failed++
				logf("study %s failed: %v", sp.Label, err)
				continue
			}
			for _, e := range out.Errors {
				t.wrong("study %s: %s", sp.Label, e)
			}
			if out.FrontFault != "" {
				// Known fault (d) in README.md: the study failed, but it
				// ran to its end and its other checks passed, so its
				// times still count.
				t.failed++
				logf("study %s failed: %s", sp.Label, out.FrontFault)
			}
			lat := float64(out.RunEnd-t0.UnixNano()) / 1e9
			setup = append(setup, float64(out.FirstBatch-t0.UnixNano())/1e9)
			latency = append(latency, lat)
			rss = append(rss, float64(out.MaxRSSKB)/1024)
			ratios = append(ratios, out.BestValue/base)
			trials += float64(out.Trials)
			studyWall += lat
			logf("study %s: %.2fs (setup %.3fs, loop %.2fs, report %.2fs)", sp.Label, lat,
				setup[len(setup)-1], float64(out.LoopEnd-out.RunStart)/1e9, float64(out.RunEnd-out.LoopEnd)/1e9)
			if tr != nil {
				t.layers = append(t.layers, out.Layers)
				tr.merge(time.Unix(0, out.Epoch), out.Spans)
			}
		}
	}
	t.values["setup_s"] = median(setup)
	t.values["study_latency_p50_s"] = median(latency)
	if studyWall > 0 {
		t.values["trials_per_s"] = trials / studyWall
	}
	t.values["peak_rss_mb"] = median(rss)
	t.values["perf_per_tdp_vs_tpuv3"] = geomean(ratios)
	return nil
}

// execChild runs one study in a fresh process and decodes its report.
func execChild(self string, sp childSpec) (childOut, error) {
	var out childOut
	spec, err := json.Marshal(sp)
	if err != nil {
		return out, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(self, "-child", string(spec))
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return out, fmt.Errorf("study child: %w", err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return out, fmt.Errorf("study child output: %w", err)
	}
	return out, nil
}
