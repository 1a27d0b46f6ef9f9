package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// figure3Golden is the SHA-256 of the serialized Figure 3 panel below,
// captured from the pre-pooling seed implementation. It pins the
// simulation bit-exactly across hot-path refactors (event pooling,
// table caching, closure reuse must not perturb event ordering or RNG
// consumption). Regenerate it only for an intentional model change,
// never to make a refactor pass.
const figure3Golden = "a175e89e1385594e72cfa8e4d2a8aa9e9ac24a5d9f0b9a84713c5e72d560219f"

// figure3Artifact builds the golden panel; mutate, when non-nil,
// adjusts the scale's execution hints first.
func figure3Artifact(t *testing.T, mutate func(*Scale)) []byte {
	t.Helper()
	sc := QuickScale()
	sc.Sizes = []int{8}
	sc.Topologies = 1
	if mutate != nil {
		mutate(&sc)
	}
	res, err := Figure3(sc, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func figure3Hash(t *testing.T, mutate func(*Scale)) string {
	sum := sha256.Sum256(figure3Artifact(t, mutate))
	return hex.EncodeToString(sum[:])
}

// TestFigure3Deterministic guards the determinism contract: the same
// seed must yield byte-identical experiment artifacts run-to-run,
// through the parallel harness, and across hot-path refactors (via the
// committed golden hash).
func TestFigure3Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four QuickScale sweeps")
	}
	first := figure3Artifact(t, nil)
	second := figure3Artifact(t, nil)
	if !bytes.Equal(first, second) {
		t.Fatal("two sequential runs with the same seed differ")
	}
	// Concurrent execution must not change results either: the worker
	// pool only reorders wall-clock execution, never simulated events.
	parallel, err := runParallel(2, func(i int) ([]byte, error) {
		return figure3Artifact(t, nil), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parallel {
		if !bytes.Equal(first, p) {
			t.Fatalf("parallel run %d differs from sequential run", i)
		}
	}
	sum := sha256.Sum256(first)
	if got := hex.EncodeToString(sum[:]); got != figure3Golden {
		t.Fatalf("artifact hash %s, want golden %s (simulation output drifted)", got, figure3Golden)
	}
}

// TestFigure3GoldenScanArb pins the scan-arbiter reference to the same
// golden hash: the wake-list arbiter (the default, covered by the
// artifact tests above) and the full round-robin rescan must both
// reproduce the committed bytes exactly — arbitration strategy is a
// work-finding optimization, never a model change.
func TestFigure3GoldenScanArb(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a QuickScale sweep")
	}
	if got := figure3Hash(t, func(sc *Scale) { sc.Arb = "scan" }); got != figure3Golden {
		t.Fatalf("scan-arbiter artifact hash %s, want golden %s (arbiter changed results)", got, figure3Golden)
	}
}
