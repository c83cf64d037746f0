// Command studybench is FAST's cold, end-to-end study benchmark. It
// drives the system only through its public entry points — core.Study,
// sim.Compile with Plan.Evaluate, the dispatch worker pool and the
// store API — and prints, as the last line of its standard output, one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separately traced run reports the per-layer ones and writes its spans
// under the work directory. See README.md for the workloads, metrics
// and measured spreads; run.sh builds the binaries and runs it:
//
//	bash studybench/run.sh --workload b7-pareto --seed 1 --seconds 24 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of FAST sees; untraced runs report
// every one on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"study_latency_p50_s", "s"},
	{"trials_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"perf_per_tdp_vs_tpuv3", "x"},
}

// perLayer are the traced run's metrics, one group per layer. A layer
// a workload does not call into reports 0.
var perLayer = []metricDef{
	{"models.build_s", "s"},
	{"sim.compile_s", "s"},
	{"sim.plans", "count"},
	{"sim.plan_mb", "MB"},
	{"sim.batch_eval_s", "s"},
	{"sim.evals", "count"},
	{"sim.evals_per_s", "1/s"},
	{"core.loop_s", "s"},
	{"core.loop_self_s", "s"},
	{"search.trials", "count"},
	{"search.feasible", "count"},
	{"core.memo_hits", "count"},
	{"core.plan_cache_hits", "count"},
	{"core.report_s", "s"},
	{"ilp.solves", "count"},
	{"ilp.optimal", "count"},
	{"ilp.deadline_cut", "count"},
	{"ilp.gap_inf", "count"},
	{"ilp.nodes_optimal", "count"},
	{"ilp.optimal_solve_s", "s"},
	{"ilp.deadline_nodes_per_s", "1/s"},
	{"ilp.max_gap", "ratio"},
	{"dispatch.batch_s", "s"},
	{"dispatch.remote_points", "count"},
	{"dispatch.retries", "count"},
	{"dispatch.hedges", "count"},
	{"dispatch.timeouts", "count"},
	{"dispatch.degraded_chunks", "count"},
	{"store.append_s", "s"},
	{"store.checkpoint_writes", "count"},
	{"store.checkpoint_mb", "MB"},
}

// workload is one benchmark workload's make-up.
type workload struct {
	name      string
	workloads []string // model names of a study workload
	trials    int
	workers   int
	ilpDeadl  float64 // report ILP deadline (s); 0 = the simulator default
	panel     []int64 // study seeds of one round
	roundS    float64 // nominal seconds of one round, checks included
}

var (
	decodePair  = []string{"gpt2-prefill-1024", "gpt2-decode-1024"}
	decodePanel = []int64{1, 3}
)

var workloadTable = []workload{
	{name: "b7-pareto", workloads: []string{"efficientnet-b7"}, trials: 512, panel: []int64{1}, roundS: 4.5},
	{name: "decode-pareto", workloads: decodePair, trials: 8192, ilpDeadl: 120, panel: decodePanel, roundS: 7.5},
	{name: "decode-pareto-workers", workloads: decodePair, trials: 8192, ilpDeadl: 120, panel: decodePanel, workers: 2, roundS: 7.5},
}

// smokeSize shrinks a workload to seconds of work for the self-tests:
// same code paths, a smaller model and trial budget.
func (w workload) smokeSize() workload {
	switch {
	case w.name == "b7-pareto":
		w.workloads, w.trials, w.ilpDeadl = []string{"efficientnet-b0"}, 32, 0.5
	default:
		w.trials = 64
	}
	w.panel = w.panel[:1]
	return w
}

// runOpts are one invocation's settings.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	binDir  string // holds fast-worker
	workDir string // scratch space inside the checkout
	self    string // this binary, re-executed for study children
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally accumulates a run's outcome before it is rendered.
type tally struct {
	correct           bool
	attempted, failed int
	values            map[string]float64
	layers            []map[string]float64 // one per study (traced runs)
}

func newTally() *tally { return &tally{correct: true, values: map[string]float64{}} }

// wrong records a failed output check.
func (t *tally) wrong(format string, a ...any) {
	t.correct = false
	logf("CHECK FAILED: "+format, a...)
}

// render builds the printed result: every end-to-end metric untraced,
// every per-layer metric traced (per-study values folded by median).
func (t *tally) render(wl workload, traced bool) result {
	r := result{Correct: t.correct, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := t.values[d.name]
		if !ok && traced {
			var xs []float64
			for _, l := range t.layers {
				if x, ok := l[d.name]; ok {
					xs = append(xs, x)
				}
			}
			v = median(xs)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return r
}

func logf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "studybench: "+format+"\n", a...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: b7-pareto, decode-pareto, decode-pareto-workers")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "measurement length in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		smoke   = flag.Bool("smoke", false, "tiny sizes (self-tests)")
		binDir  = flag.String("bin", "", "directory holding the fast-worker binary")
		workDir = flag.String("work", ".bench_build/studybench/work", "scratch directory")
		child   = flag.String("child", "", "internal: run one study child from this JSON spec")
		repro   = flag.String("repro", "", `run one scalar study and print its report solves: "workload algorithm trials seed ilp-deadline-seconds"`)
	)
	flag.Parse()
	if *repro != "" {
		if err := runRepro(*repro); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	if *child != "" {
		if err := runChild(*child); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, binDir: *binDir, workDir: *workDir}); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run(name string, o runOpts) error {
	var w *workload
	for i := range workloadTable {
		if workloadTable[i].name == name {
			w = &workloadTable[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	wl := *w
	if o.smoke {
		wl = wl.smokeSize()
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	o.self = self
	if o.binDir == "" {
		o.binDir = filepath.Dir(self)
	}
	if o.workDir, err = filepath.Abs(o.workDir); err != nil {
		return err
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer(time.Now())
	}
	t := newTally()
	if err := runStudies(wl, o, t, tr); err != nil {
		return err
	}
	if tr != nil {
		path := filepath.Join(o.workDir, fmt.Sprintf("trace-%s-%d.json", name, o.seed))
		if err := tr.write(path); err != nil {
			return err
		}
		logf("spans written to %s", path)
	}
	line, err := json.Marshal(t.render(wl, o.trace))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
