package main

// The study child: one cold study in a fresh process, so the graph,
// plan and stage caches all start empty. The parent starts it with
// -child <spec JSON> and reads one JSON object from its stdout.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fast/internal/arch"
	"fast/internal/core"
	"fast/internal/dispatch"
	"fast/internal/models"
	"fast/internal/search"
	"fast/internal/sim"
)

// childSpec is the whole input of one study child.
type childSpec struct {
	Label          string   `json:"label"`
	Workloads      []string `json:"workloads"`
	Trials         int      `json:"trials"`
	Seed           int64    `json:"seed"`
	Parallelism    int      `json:"parallelism"`
	Workers        int      `json:"workers,omitempty"`
	WorkerBin      string   `json:"worker_bin,omitempty"`
	ILPDeadlineSec float64  `json:"ilp_deadline_sec,omitempty"`
	Trace          bool     `json:"trace,omitempty"`
	// Scalar runs a scalar Perf/TDP study (-repro, the self-tests)
	// instead of the Perf/TDP × area NSGA-II study.
	Scalar bool `json:"scalar,omitempty"`
	// SetupOnly stops the study at its first told batch: a cold-start
	// probe, timed but not checked.
	SetupOnly bool `json:"setup_only,omitempty"`
	// Algorithm overrides the optimizer (default nsga2, or lcs for a
	// scalar study).
	Algorithm search.Algorithm `json:"algorithm,omitempty"`
}

func (sp childSpec) objectives() []core.ObjectiveKind {
	if sp.Scalar {
		return []core.ObjectiveKind{core.PerfPerTDP}
	}
	return paretoObjectives
}

// reported is one full-ILP report result: a design on one workload.
type reported struct {
	what   string
	design *arch.Config
	values []float64 // the design's search-scored raw values
	wr     []core.WorkloadResult
}

// reportedDesigns lists the designs a study's report re-simulated with
// the full ILP: every front point, or a scalar study's winner.
func reportedDesigns(sp childSpec, res *core.StudyResult) []reported {
	if sp.Scalar {
		return []reported{{"best design", res.Best, []float64{res.BestValue}, res.PerWorkload}}
	}
	var out []reported
	for i, p := range res.Front() {
		out = append(out, reported{fmt.Sprintf("front point %d", i), p.Design, p.Values, p.PerWorkload})
	}
	return out
}

// paretoObjectives are the study workloads' targets: Perf/TDP against
// area.
var paretoObjectives = []core.ObjectiveKind{core.PerfPerTDP, core.Area}

// childOut is what a study child reports.
type childOut struct {
	// Wall-clock instants (Unix ns): Run called, first batch told, last
	// batch told, Run returned.
	RunStart   int64 `json:"run_start"`
	FirstBatch int64 `json:"first_batch"`
	LoopEnd    int64 `json:"loop_end"`
	RunEnd     int64 `json:"run_end"`

	Trials    int     `json:"trials"`
	BestValue float64 `json:"best_value"` // raw Perf/TDP of the best design
	// MaxRSSKB is the peak resident set at Run return, summed over the
	// study process and its fast-worker subprocesses.
	MaxRSSKB int64    `json:"max_rss_kb"`
	RunError string   `json:"run_error,omitempty"`
	Errors   []string `json:"errors,omitempty"` // failed output checks
	// FrontFault is set when the front holds a feasible trial another
	// one dominates (known fault (d) in README.md): the study failed,
	// but its other output checks still ran.
	FrontFault string `json:"front_fault,omitempty"`

	Layers map[string]float64 `json:"layers,omitempty"` // traced runs only
	Epoch  int64              `json:"epoch,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

// runChild executes one study and prints its childOut.
func runChild(specJSON string) error {
	var sp childSpec
	if err := json.Unmarshal([]byte(specJSON), &sp); err != nil {
		return fmt.Errorf("child spec: %w", err)
	}
	out, _ := studyChild(sp)
	return json.NewEncoder(os.Stdout).Encode(out)
}

// batchTimer wraps a batch objective to record one span per call and
// count the points it evaluates.
type batchTimer struct {
	mu     sync.Mutex
	tr     *tracer
	name   string
	points int
	spec   *core.EvalSpec
}

func (b *batchTimer) wrap(inner core.DispatchFunc) core.DispatchFunc {
	return func(ctx context.Context, spec core.EvalSpec, local search.BatchObjective) search.BatchObjective {
		b.spec = &spec
		obj := local
		if inner != nil {
			obj = inner(ctx, spec, local)
		}
		if b.tr == nil {
			return obj
		}
		return func(idxs [][arch.NumParams]int) []search.Evaluation {
			t0 := time.Now()
			evs := obj(idxs)
			b.tr.add(0, b.name, "", t0, time.Now())
			b.mu.Lock()
			b.points += len(idxs)
			b.mu.Unlock()
			return evs
		}
	}
}

// studyChild runs the study sp describes, checks its outputs and, in a
// traced run, replays its layers. The result is nil when Run did not
// complete.
func studyChild(sp childSpec) (childOut, *core.StudyResult) {
	var out childOut
	epoch := time.Now()
	var tr *tracer
	if sp.Trace {
		tr = newTracer(epoch)
		out.Epoch = epoch.UnixNano()
	}

	objs := sp.objectives()
	st := &core.Study{
		Workloads: sp.Workloads,
		Algorithm: search.AlgNSGA2,
		Trials:    sp.Trials,
		Seed:      sp.Seed,
	}
	if sp.Scalar {
		st.Objective, st.Algorithm = core.PerfPerTDP, search.AlgLCS
	} else {
		st.Objectives = objs
	}
	if sp.Algorithm != "" {
		st.Algorithm = sp.Algorithm
	}
	if sp.ILPDeadlineSec > 0 {
		so := sim.FASTOptions()
		so.Fusion.Deadline = time.Duration(sp.ILPDeadlineSec * float64(time.Second))
		st.SimOptions = &so
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snap search.Snapshot
	var firstBatch, loopEnd time.Time
	var loopEvals int64
	opts := []core.Option{
		core.WithParallelism(sp.Parallelism),
		core.WithTranscript(func(b []search.Trial) {
			now := time.Now()
			if firstBatch.IsZero() {
				firstBatch = now
				if sp.SetupOnly {
					cancel()
				}
			}
			loopEnd = now
			loopEvals = sim.EvalCount()
			snap.Append(b)
		}),
	}
	timer := &batchTimer{tr: tr, name: "sim.batch_eval"}
	var pool *dispatch.Pool
	if sp.Workers > 0 {
		var err error
		pool, err = dispatch.New(dispatch.Options{Workers: sp.Workers, WorkerCmd: []string{sp.WorkerBin}})
		if err != nil {
			out.RunError = err.Error()
			return out, nil
		}
		defer closePool(pool)
		timer.name = "dispatch.batch"
		opts = append(opts, core.WithDispatch(timer.wrap(pool.Dispatch())))
	} else {
		opts = append(opts, core.WithDispatch(timer.wrap(nil)))
	}

	runStart := time.Now()
	res, err := st.Run(ctx, opts...)
	runEnd := time.Now()
	out.RunStart, out.RunEnd = runStart.UnixNano(), runEnd.UnixNano()
	out.FirstBatch, out.LoopEnd = firstBatch.UnixNano(), loopEnd.UnixNano()
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		out.MaxRSSKB = ru.Maxrss + childrenPeakRSSKB()
	}
	if sp.SetupOnly && !firstBatch.IsZero() {
		return out, nil
	}
	if err != nil {
		out.RunError = err.Error()
		return out, nil
	}
	planInfo := core.PlanCacheInfo()
	snap.Algorithm, snap.Seed, snap.Budget = st.Algorithm, sp.Seed, sp.Trials
	out.Trials = len(res.Search.History)
	out.BestValue = res.BestValue

	fail := func(format string, a ...any) { out.Errors = append(out.Errors, fmt.Sprintf(format, a...)) }
	if out.Trials != sp.Trials {
		fail("study told %d trials, want %d", out.Trials, sp.Trials)
	}
	if res.Best == nil {
		fail("no feasible design")
		return out, res
	}

	// Output checks: front ⊆ brute-force non-dominated set, search
	// values = fresh greedy re-score, full-ILP report ≥ greedy.
	if !sp.Scalar {
		front := make([]frontPoint, len(res.Front()))
		for i, p := range res.Front() {
			front[i] = frontPoint{Index: p.Index, Values: maximizeOriented(objs, p.Values)}
		}
		if err := checkFront(res.Search.History, front); errors.Is(err, errDominated) {
			out.FrontFault = err.Error()
		} else if err != nil {
			fail("front: %v", err)
		}
		// Negation is its own inverse: this turns the maximize-oriented
		// best trial back into natural units.
		bestRaw := maximizeOriented(objs, res.Search.Best.Values)
		if _, err := newRescorer().checkScore("best design", res.Best, sp.Workloads, objs, bestRaw); err != nil {
			fail("%v", err)
		}
		if bestRaw[0] != res.BestValue {
			fail("best value %v differs from the best trial's %v", res.BestValue, bestRaw[0])
		}
	}
	rs := newRescorer()
	for _, d := range reportedDesigns(sp, res) {
		greedy, err := rs.checkScore(d.what, d.design, sp.Workloads, objs, d.values)
		if err != nil {
			fail("%v", err)
			continue
		}
		for k, wr := range d.wr {
			if err := checkILP(fmt.Sprintf("%s on %s", d.what, wr.Name), d.design, wr.Result, greedy[k]); err != nil {
				fail("%v", err)
			}
		}
	}
	if pool != nil {
		if err := checkInProcessTwin(timer.spec, snap, sp, res); err != nil {
			fail("workers vs in-process: %v", err)
		}
		if ds := pool.Stats(); ds.DegradedChunks > 0 {
			fail("%d chunks fell back to in-process evaluation", ds.DegradedChunks)
		}
	}
	ckptStart := time.Now()
	appends, ckptBytes, err := checkCheckpoint(sp, snap)
	ckptEnd := time.Now()
	if err != nil {
		fail("checkpoint: %v", err)
	}

	if !sp.Trace {
		return out, res
	}
	// Traced run: split the study span by the transcript timestamps and
	// replay the layers the study called into on fresh state.
	root := tr.add(0, "core.study_run", sp.Label, runStart, runEnd)
	loop := tr.add(root, "core.loop", sp.Label, runStart, loopEnd)
	tr.add(root, "core.report", sp.Label, loopEnd, runEnd)
	var batches []span
	for _, s := range tr.snapshot() {
		if s.Name == timer.name {
			batches = append(batches, s)
		}
	}
	lo, hi := runStart.Sub(epoch).Seconds(), loopEnd.Sub(epoch).Seconds()
	batchWall := covered(batches, lo, hi)
	loopS := loopEnd.Sub(runStart).Seconds()
	feasible := 0
	for _, t := range res.Search.History {
		if t.Feasible {
			feasible++
		}
	}
	L := map[string]float64{
		"sim.plans":               float64(planInfo.Entries),
		"sim.plan_mb":             float64(planInfo.Bytes) / 1e6,
		"core.loop_s":             loopS,
		"core.loop_self_s":        loopS - batchWall,
		"search.trials":           float64(out.Trials),
		"search.feasible":         float64(feasible),
		"core.memo_hits":          float64(out.Trials - timer.points),
		"core.plan_cache_hits":    float64(planInfo.Hits),
		"core.report_s":           runEnd.Sub(loopEnd).Seconds(),
		"store.append_s":          median(appends),
		"store.checkpoint_writes": float64(len(appends)),
		"store.checkpoint_mb":     float64(ckptBytes) / 1e6,
	}
	if pool != nil {
		ds := pool.Stats()
		L["dispatch.batch_s"] = batchWall
		L["dispatch.remote_points"] = float64(ds.RemotePoints)
		L["dispatch.retries"] = float64(ds.Retries)
		L["dispatch.hedges"] = float64(ds.Hedges)
		L["dispatch.timeouts"] = float64(ds.Timeouts)
		L["dispatch.degraded_chunks"] = float64(ds.DegradedChunks)
	} else {
		L["sim.batch_eval_s"] = batchWall
		L["sim.evals"] = float64(loopEvals)
		if batchWall > 0 {
			L["sim.evals_per_s"] = float64(loopEvals) / batchWall
		}
	}
	tr.add(root, "store.checkpoint", sp.Label, ckptStart, ckptEnd)
	replayLayers(tr, root, sp, res, L)
	out.Layers = L
	out.Spans = tr.snapshot()
	for i := range out.Spans {
		if out.Spans[i].Name == timer.name {
			out.Spans[i].Parent = loop // recorded before the loop span existed
		}
	}
	return out, res
}

// childPids lists this process's live children — a dispatched study's
// fast-worker subprocesses — from /proc; none where /proc does not list
// them.
func childPids() []string {
	lists, _ := filepath.Glob("/proc/self/task/*/children")
	var pids []string
	for _, l := range lists {
		if b, err := os.ReadFile(l); err == nil {
			pids = append(pids, strings.Fields(string(b))...)
		}
	}
	return pids
}

// childrenPeakRSSKB sums the peak resident sets (VmHWM) of this
// process's live children, read before the pool stops them.
func childrenPeakRSSKB() int64 {
	var sum int64
	for _, pid := range childPids() {
		st, err := os.ReadFile("/proc/" + pid + "/status")
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(st), "\n") {
			if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var v int64
				fmt.Sscan(kb, &v) //nolint:errcheck
				sum += v
			}
		}
	}
	return sum
}

// closeWait is how long closePool lets Pool.Close run before it kills
// the pool's workers; a healthy Close takes milliseconds.
const closeWait = 5 * time.Second

// closePool stops a dispatch pool. Pool.Close can wait forever when a
// slot was still spawning its worker as Close killed the live ones: the
// new connection is installed after the kill and its reader blocks on
// a worker that waits for input. Set-up probes close the pool right
// after the first batch and hit that window now and then. After
// closeWait the remaining workers are killed, their readers see EOF and
// Close returns, so the study process still ends and reaps them.
func closePool(pool *dispatch.Pool) {
	done := make(chan struct{})
	go func() {
		pool.Close()
		close(done)
	}()
	select {
	case <-done:
		return
	case <-time.After(closeWait):
	}
	pids := childPids()
	logf("dispatch.Pool.Close still waiting after %v; killing workers %v", closeWait, pids)
	for _, pid := range pids {
		if n, err := strconv.Atoi(pid); err == nil {
			syscall.Kill(n, syscall.SIGKILL) //nolint:errcheck
		}
	}
	<-done
}

// replayLayers re-runs, on fresh state, the calls a study made into the
// models and sim layers and the report's exact solves, timing each:
// graph builds and compiles for every (workload, batch) the study's
// feasible designs used, then one full-ILP Plan.Evaluate per front
// point × workload on a freshly compiled plan.
func replayLayers(tr *tracer, root int, sp childSpec, res *core.StudyResult, L map[string]float64) {
	greedyOpts := sim.FASTOptions()
	finalOpts := greedyOpts
	finalOpts.Fusion.GreedyOnly = false
	if sp.ILPDeadlineSec > 0 {
		finalOpts.Fusion.Deadline = time.Duration(sp.ILPDeadlineSec * float64(time.Second))
	}
	batches := map[int64]bool{}
	for _, t := range res.Search.History {
		if t.Feasible {
			batches[arch.Space{}.Decode(t.Index, core.DefaultPlatform()).NativeBatch] = true
		}
	}
	nbs := make([]int64, 0, len(batches))
	for nb := range batches {
		nbs = append(nbs, nb)
	}
	sort.Slice(nbs, func(i, j int) bool { return nbs[i] < nbs[j] })
	var buildS, compileS float64
	for _, w := range sp.Workloads {
		for _, nb := range nbs {
			t0 := time.Now()
			g, err := models.Build(w, nb)
			t1 := time.Now()
			if err != nil {
				continue
			}
			_, _ = sim.Compile(g, greedyOpts)
			t2 := time.Now()
			tr.add(root, "models.build", sp.Label, t0, t1)
			tr.add(root, "sim.compile", sp.Label, t1, t2)
			buildS += t1.Sub(t0).Seconds()
			compileS += t2.Sub(t1).Seconds()
		}
	}

	var solves, optimal, cut, gapInf, nodesOpt float64
	maxGap := 0.0
	designs := reportedDesigns(sp, res)
	for _, d := range designs {
		for _, wr := range d.wr {
			f := wr.Result.Fusion
			solves++
			switch {
			case f.Method == "ilp-optimal":
				optimal++
				nodesOpt += float64(f.Nodes)
			case f.Method == "ilp-incumbent":
				cut++
				if math.IsInf(f.Gap, 0) {
					gapInf++
				} else {
					maxGap = max(maxGap, f.Gap)
				}
			}
		}
	}
	// One freshly compiled plan per (workload, batch), shared by the
	// front points as the study's report shares its plans, so the
	// replay memoizes fusion placements exactly as the report did.
	var optSolveS, cutS, cutNodes float64
	plans := map[string]*sim.Plan{}
	for _, d := range designs {
		for _, w := range sp.Workloads {
			key := fmt.Sprintf("%s@%d", w, d.design.NativeBatch)
			plan := plans[key]
			if plan == nil {
				g, err := models.Build(w, d.design.NativeBatch)
				if err != nil {
					continue
				}
				t0 := time.Now()
				if plan, err = sim.Compile(g, finalOpts); err != nil {
					continue
				}
				t1 := time.Now()
				compileS += t1.Sub(t0).Seconds()
				tr.add(root, "sim.compile", sp.Label, t0, t1)
				plans[key] = plan
			}
			t1 := time.Now()
			r, err := plan.Evaluate(d.design)
			t2 := time.Now()
			if err != nil {
				continue
			}
			tr.add(root, "ilp.report_solve", sp.Label, t1, t2)
			switch r.Fusion.Method {
			case "ilp-optimal":
				optSolveS += t2.Sub(t1).Seconds()
			case "ilp-incumbent":
				cutS += t2.Sub(t1).Seconds()
				cutNodes += float64(r.Fusion.Nodes)
			}
		}
	}
	L["models.build_s"] = buildS
	L["sim.compile_s"] = compileS
	L["ilp.solves"] = solves
	L["ilp.optimal"] = optimal
	L["ilp.deadline_cut"] = cut
	L["ilp.gap_inf"] = gapInf
	L["ilp.nodes_optimal"] = nodesOpt
	L["ilp.optimal_solve_s"] = optSolveS
	L["ilp.max_gap"] = maxGap
	if cutS > 0 {
		L["ilp.deadline_nodes_per_s"] = cutNodes / cutS
	}
}

// checkInProcessTwin proves a dispatched study's front is the one the
// same study computes in-process, without paying for a second report:
// every told evaluation must equal the in-process batch objective's
// evaluation of that point, the optimizer must propose exactly the
// recorded points when replayed with those evaluations
// (search.Restore), and the reported front must be the Pareto fold of
// that history. An in-process run of the study therefore tells the
// identical transcript and reports the identical front.
func checkInProcessTwin(spec *core.EvalSpec, snap search.Snapshot, sp childSpec, res *core.StudyResult) error {
	if spec == nil {
		return fmt.Errorf("no evaluation spec was dispatched")
	}
	local, err := core.BuildBatchEvaluator(*spec)
	if err != nil {
		return err
	}
	seen := map[[arch.NumParams]int]search.Evaluation{}
	var uniq [][arch.NumParams]int
	for _, t := range res.Search.History {
		if _, ok := seen[t.Index]; !ok {
			seen[t.Index] = t.Evaluation
			uniq = append(uniq, t.Index)
		}
	}
	evs := make([]search.Evaluation, len(uniq))
	core.ForEach(sp.Parallelism, (len(uniq)+255)/256, func(c int) {
		lo, hi := c*256, min((c+1)*256, len(uniq))
		copy(evs[lo:hi], local(uniq[lo:hi]))
	})
	for i, idx := range uniq {
		if !evs[i].Equal(seen[idx]) {
			return fmt.Errorf("point %v: dispatched evaluation %+v, in-process %+v", idx, seen[idx], evs[i])
		}
	}
	if _, err := search.Restore(snap); err != nil {
		return err
	}
	archive := search.NewParetoArchive(core.DefaultFrontCap)
	for _, t := range res.Search.History {
		archive.Add(t)
	}
	fold := archive.Front()
	sort.SliceStable(fold, func(a, b int) bool { return fold[a].Values[0] > fold[b].Values[0] })
	got := res.Front()
	if len(fold) != len(got) {
		return fmt.Errorf("front has %d points, the history folds to %d", len(got), len(fold))
	}
	for i := range fold {
		if fold[i].Index != got[i].Index || !slices.Equal(fold[i].Values, maximizeOriented(paretoObjectives, got[i].Values)) {
			return fmt.Errorf("front point %d differs from the history fold", i)
		}
	}
	return nil
}

// runRepro runs one scalar Perf/TDP study in-process — "workload
// algorithm trials seed ilp-deadline-seconds" — and prints how its
// full-ILP report solves ended. The README's known-fault commands use
// it.
func runRepro(args string) error {
	sp := childSpec{Scalar: true, Parallelism: 2}
	var alg string
	if _, err := fmt.Sscan(args, &sp.Label, &alg, &sp.Trials, &sp.Seed, &sp.ILPDeadlineSec); err != nil {
		return fmt.Errorf("-repro wants \"workload algorithm trials seed ilp-deadline-seconds\": %w", err)
	}
	sp.Workloads, sp.Algorithm = []string{sp.Label}, search.Algorithm(alg)
	out, res := studyChild(sp)
	if res == nil {
		return fmt.Errorf("study: %s", out.RunError)
	}
	for _, e := range out.Errors {
		logf("CHECK FAILED: %s", e)
	}
	report := float64(out.RunEnd-out.LoopEnd) / 1e9
	for _, wr := range res.PerWorkload {
		f := wr.Result.Fusion
		fmt.Printf("%s seed %d, ILP deadline %gs: method=%s nodes=%d gap=%g report=%.2fs perf/tdp=%g\n",
			wr.Name, sp.Seed, sp.ILPDeadlineSec, f.Method, f.Nodes, f.Gap, report, wr.Result.PerfPerTDP)
	}
	return nil
}
