package ibasim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// facadeSweepGolden is the SHA-256 of Sweep and CompareRouting on
// DefaultConfig over a 3-point load grid, printed with %v. It pins the
// facade's path into the load-sweep harness bit-exactly; regenerate
// only for an intentional model change.
const facadeSweepGolden = "9ebb276c7c96696ed1e780b48b79221b590b6d7aa001954ab1b068ec2c3b540a"

func TestHarnessGoldensFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine 16-switch simulations")
	}
	loads := Loads(0.005, 0.08, 3)
	pts, err := Sweep(DefaultConfig(), loads)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := CompareRouting(DefaultConfig(), loads)
	if err != nil {
		t.Fatal(err)
	}
	out := fmt.Sprintf("%v\n%v\n", pts, cmp)
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != facadeSweepGolden {
		t.Fatalf("facade sweep hash %s, want golden %s (output drifted):\n%s", got, facadeSweepGolden, out)
	}
}
