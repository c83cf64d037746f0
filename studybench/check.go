package main

// Output checks. Each one recomputes a property apart from the study
// pipeline — brute-force dominance over the transcript, a fresh greedy
// re-score on plans compiled here, the ILP-vs-greedy ordering — rather
// than comparing against a recorded copy of earlier output.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"fast/internal/arch"
	"fast/internal/core"
	"fast/internal/models"
	"fast/internal/power"
	"fast/internal/search"
	"fast/internal/sim"
	"fast/internal/store"
)

// dominates reports whether a Pareto-dominates b; both are
// maximize-oriented vectors of equal length.
func dominates(a, b []float64) bool {
	better := false
	for k := range a {
		if a[k] < b[k] {
			return false
		}
		if a[k] > b[k] {
			better = true
		}
	}
	return better
}

// nonDominated returns the positions of the vectors no other vector
// dominates, by comparing every pair.
func nonDominated(vals [][]float64) []int {
	var out []int
	for i, v := range vals {
		dominated := false
		for j, w := range vals {
			if j != i && dominates(w, v) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// frontPoint is one reported front design in maximize orientation.
type frontPoint struct {
	Index  [arch.NumParams]int
	Values []float64
}

// errDominated marks a front point that is a feasible trial of the
// transcript but dominated by another one: the capped-archive fault of
// README.md, known fault (d), which a study at the default FrontCap
// shows on some inputs.
var errDominated = errors.New("dominated")

// checkFront verifies that every front point is a feasible trial of
// the transcript and lies in the brute-force non-dominated set of the
// feasible transcript. A feasible trial that another dominates is
// reported wrapping errDominated.
func checkFront(history []search.Trial, front []frontPoint) error {
	var feas []search.Trial
	var vals [][]float64
	inFeas := map[string]bool{}
	for _, tr := range history {
		if tr.Feasible {
			feas = append(feas, tr)
			vals = append(vals, tr.Values)
			inFeas[pointKey(tr.Index, tr.Values)] = true
		}
	}
	inND := map[string]bool{}
	for _, i := range nonDominated(vals) {
		inND[pointKey(feas[i].Index, feas[i].Values)] = true
	}
	if len(front) == 0 && len(feas) > 0 {
		return fmt.Errorf("empty front over %d feasible trials", len(feas))
	}
	for i, p := range front {
		switch k := pointKey(p.Index, p.Values); {
		case !inFeas[k]:
			return fmt.Errorf("front point %d %v %v is not a feasible trial", i, p.Index, p.Values)
		case !inND[k]:
			return fmt.Errorf("%w: front point %d %v %v is a feasible trial another one dominates", errDominated, i, p.Index, p.Values)
		}
	}
	return nil
}

func pointKey(idx [arch.NumParams]int, vals []float64) string {
	return fmt.Sprint(idx, vals)
}

// maximizeOriented converts raw objective values (natural units) to the
// search's maximize-oriented convention.
func maximizeOriented(objs []core.ObjectiveKind, raw []float64) []float64 {
	out := make([]float64, len(raw))
	for k, v := range raw {
		if objs[k].Maximize() {
			out[k] = v
		} else {
			out[k] = -v
		}
	}
	return out
}

// rescorer re-scores designs on plans it compiles itself from freshly
// built graphs, with the greedy fusion the search loop uses. Plans are
// shared across the designs one rescorer checks, never with the study.
type rescorer struct {
	opts  sim.Options
	pm    *power.Model
	plans map[string]*sim.Plan
}

func newRescorer() *rescorer {
	pm := power.Default()
	opts := sim.FASTOptions()
	opts.PowerModel = pm
	return &rescorer{opts: opts, pm: pm, plans: map[string]*sim.Plan{}}
}

func (r *rescorer) plan(w string, batch int64) (*sim.Plan, error) {
	key := fmt.Sprintf("%s@%d", w, batch)
	if p, ok := r.plans[key]; ok {
		return p, nil
	}
	g, err := models.Build(w, batch)
	if err != nil {
		return nil, err
	}
	p, err := sim.Compile(g, r.opts)
	if err != nil {
		return nil, err
	}
	r.plans[key] = p
	return p, nil
}

// score returns the design's raw objective values, folded exactly as a
// study folds them (per-workload log-sum, then exp of the mean), and
// the per-workload greedy results.
func (r *rescorer) score(cfg *arch.Config, workloads []string, objs []core.ObjectiveKind) ([]float64, []*sim.Result, error) {
	logSum := make([]float64, len(objs))
	results := make([]*sim.Result, len(workloads))
	for wi, w := range workloads {
		p, err := r.plan(w, cfg.NativeBatch)
		if err != nil {
			return nil, nil, err
		}
		res, err := p.Evaluate(cfg)
		if err != nil {
			return nil, nil, err
		}
		if res.ScheduleFailed {
			return nil, nil, fmt.Errorf("%s: greedy re-score fails to schedule: %s", w, res.FailReason)
		}
		results[wi] = res
		for k, o := range objs {
			switch o {
			case core.PerfPerTDP:
				logSum[k] += math.Log(res.PerfPerTDP)
			case core.Perf:
				logSum[k] += math.Log(res.QPS)
			}
		}
	}
	bd := r.pm.Evaluate(cfg)
	vals := make([]float64, len(objs))
	for k, o := range objs {
		switch o {
		case core.TDP:
			vals[k] = bd.TotalPower()
		case core.Area:
			vals[k] = bd.TotalArea()
		default:
			vals[k] = math.Exp(logSum[k] / float64(len(workloads)))
		}
	}
	return vals, results, nil
}

// checkScore compares a design's search-scored values with the greedy
// re-score, bit for bit, and returns the greedy per-workload results.
func (r *rescorer) checkScore(what string, cfg *arch.Config, workloads []string, objs []core.ObjectiveKind, want []float64) ([]*sim.Result, error) {
	got, greedy, err := r.score(cfg, workloads, objs)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", what, err)
	}
	for k := range want {
		if got[k] != want[k] {
			return nil, fmt.Errorf("%s: search scored %s = %v, greedy re-score gives %v", what, objs[k], want[k], got[k])
		}
	}
	return greedy, nil
}

// ilpMethods are the fusion methods a full-ILP report solve may end in.
var ilpMethods = map[string]bool{"ilp-optimal": true, "ilp-incumbent": true, "disabled": true}

// checkILP verifies one full-ILP report result against the greedy
// result for the same design and workload: the exact solve is seeded
// with the greedy placement, so it can only match or beat it, and its
// residency must fit the design's Global Memory.
func checkILP(what string, cfg *arch.Config, full, greedy *sim.Result) error {
	if !ilpMethods[full.Fusion.Method] {
		return fmt.Errorf("%s: full-ILP report ended in fusion method %q", what, full.Fusion.Method)
	}
	if full.PerfPerTDP < greedy.PerfPerTDP {
		return fmt.Errorf("%s: full-ILP Perf/TDP %v is below the greedy %v", what, full.PerfPerTDP, greedy.PerfPerTDP)
	}
	if full.Fusion.GMUsedPeak > cfg.GlobalBytes() {
		return fmt.Errorf("%s: full-ILP GM peak %d B exceeds the design's %d B", what, full.Fusion.GMUsedPeak, cfg.GlobalBytes())
	}
	return nil
}

// tpuBaseline returns die-shrunk TPU-v3's Perf/TDP on the production
// software stack (sim.BaselineOptions), geomean-folded over workloads:
// the denominator of the paper's headline ratio, by the convention of
// experiments.FrontierTradeoff.
func tpuBaseline(workloads []string) (float64, error) {
	tpu := arch.DieShrunkTPUv3()
	vals := make([]float64, 0, len(workloads))
	for _, w := range workloads {
		g, err := models.Build(w, tpu.NativeBatch)
		if err != nil {
			return 0, err
		}
		res, err := sim.Simulate(g, tpu, sim.BaselineOptions())
		if err != nil {
			return 0, err
		}
		if res.ScheduleFailed || !(res.PerfPerTDP > 0) {
			return 0, fmt.Errorf("tpu-v3 baseline fails on %s: %s", w, res.FailReason)
		}
		vals = append(vals, res.PerfPerTDP)
	}
	return geomean(vals), nil
}

// checkCheckpoint writes a study's transcript through the store API,
// batch by batch as it was told — as fast-serve checkpoints each of its
// studies — into a fresh store under the temporary directory, then
// reads it back with Snapshot. The read-back must hold every trial bit
// for bit. It returns each AppendBatch call's duration and the
// transcript's size in bytes.
func checkCheckpoint(sp childSpec, snap search.Snapshot) (appends []float64, size int64, err error) {
	dir, err := os.MkdirTemp("", "studybench-store-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck
	st, err := store.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	spec := store.Spec{Tenant: "studybench", ID: "study", Workloads: sp.Workloads,
		Algorithm: string(snap.Algorithm), Trials: sp.Trials, Seed: sp.Seed}
	for _, o := range sp.objectives() {
		spec.Objectives = append(spec.Objectives, o.String())
	}
	stu, err := st.Create(spec)
	if err != nil {
		return nil, 0, err
	}
	if err := stu.BeginTranscript(snap.Algorithm, snap.Seed, snap.Budget); err != nil {
		return nil, 0, err
	}
	pos := 0
	for _, n := range snap.AskSizes {
		t0 := time.Now()
		if _, err := stu.AppendBatch(snap.Trials[pos : pos+n]); err != nil {
			return nil, 0, err
		}
		appends = append(appends, time.Since(t0).Seconds())
		pos += n
	}
	size = stu.TranscriptSize()
	if err := stu.CloseTranscript(); err != nil {
		return nil, 0, err
	}
	back, truncated, err := stu.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	if truncated || len(back.Trials) != len(snap.Trials) {
		return nil, 0, fmt.Errorf("read back %d of %d trials (truncated %v)", len(back.Trials), len(snap.Trials), truncated)
	}
	for i, t := range snap.Trials {
		if !back.Trials[i].Equal(t) {
			return nil, 0, fmt.Errorf("trial %d read back as %+v, told %+v", i, back.Trials[i], t)
		}
	}
	return appends, size, nil
}
