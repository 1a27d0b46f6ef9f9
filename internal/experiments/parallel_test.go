package experiments

import (
	"errors"
	"sync/atomic"
	"testing"

	"ibasim/internal/topology"
	"ibasim/internal/traffic"
)

func TestRunParallelOrderAndValues(t *testing.T) {
	out, err := runParallel(50, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestRunParallelPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	_, err := runParallel(20, func(i int) (int, error) {
		if i == 13 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

// TestRunParallelAbortsEarly: after a failure, jobs not yet started
// must be skipped (GOMAXPROCS may be 1 in CI, where the sequential
// path aborts trivially; with workers the feeder stops on the flag).
func TestRunParallelAbortsEarly(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := runParallel(10_000, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The feeder re-checks the failure flag before every handoff, so at
	// most the jobs already in flight when job 0 failed can still run —
	// far fewer than the full batch.
	if n := ran.Load(); n > 1_000 {
		t.Fatalf("%d of 10000 jobs ran after early failure", n)
	}
}

// TestRunParallelReturnsLowestIndexError: the error surfaced must be
// the lowest-indexed one, matching what a sequential loop would have
// returned, regardless of wall-clock completion order.
func TestRunParallelReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	// Both failing jobs are dispatched before either can fail (indices
	// 0 and 1 are fed immediately to the first two workers when
	// GOMAXPROCS >= 2; sequentially index 0 fails first anyway).
	_, err := runParallel(2, func(i int) (int, error) {
		if i == 0 {
			return 0, errA
		}
		return 0, errB
	})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want lowest-index error %v", err, errA)
	}
}

func TestRunParallelZeroJobs(t *testing.T) {
	out, err := runParallel(0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("out = %v, err = %v", out, err)
	}
}

// TestLoadSweepsMatchSequential: the pool must not change results or
// their mapping back to curves. Three specs that differ in adaptive
// share, enhanced vs stock switches and MR, at three loads, must equal
// a sequential Run loop in plan order (spec by spec, loads as given).
func TestLoadSweepsMatchSequential(t *testing.T) {
	sc := tinyScale()
	topo := topology.MustGenerateIrregular(topology.IrregularSpec{
		NumSwitches: 8, HostsPerSwitch: 4, InterSwitch: 4, Seed: 4,
	})
	u := traffic.Uniform{NumHosts: topo.NumHosts()}
	specs := []RunSpec{
		sc.Spec(topo, 2, 32, 1, u, 3, true),
		sc.Spec(topo, 2, 32, 0, u, 3, false),
		sc.Spec(topo, 4, 32, 0.5, u, 3, true),
	}
	loads := []float64{0.005, 0.02, 0.05}
	got, err := LoadSweeps(specs, loads)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(specs) {
		t.Fatalf("%d curves for %d specs", len(got), len(specs))
	}
	var want [][]SweepPoint
	for _, spec := range specs {
		var curve []SweepPoint
		for _, l := range loads {
			s := spec
			s.Traffic.LoadBytesPerNsPerHost = l
			res, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			curve = append(curve, SweepPoint{Offered: res.OfferedPerSwitch, Accepted: res.AcceptedPerSwitch, AvgLatency: res.AvgLatencyNs})
		}
		want = append(want, curve)
	}
	for i := range specs {
		if len(got[i]) != len(loads) {
			t.Fatalf("curve %d has %d points for %d loads", i, len(got[i]), len(loads))
		}
		for j := range loads {
			if got[i][j] != want[i][j] {
				t.Fatalf("spec %d load %d: pooled %+v vs sequential %+v", i, j, got[i][j], want[i][j])
			}
			// Every point must be distinguishable, or a mis-mapped
			// index could go unseen.
			for k := range specs {
				if k != i && want[k][j] == want[i][j] {
					t.Fatalf("specs %d and %d give the same point at load %d", i, k, j)
				}
			}
		}
	}
}
