package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"ibasim/internal/faults"
)

// Harness goldens: the SHA-256 of the tables the LoadSweeps and Run
// callers other than Figure 3 print, captured before the cross-run
// queue and packet arenas were deleted. Like figure3Golden they pin
// the harness plumbing (sweep wiring, per-run setup and teardown)
// bit-exactly; regenerate only for an intentional model change.
const (
	table1Golden     = "eb76d2a4d193dc32c9a0faf0701036d5ce155676a17384bff2bab66220257d51"
	motivationGolden = "c40ed480a91317991731c0aef246e3731f383eeee9fd5989097599b4804420e6"
	faultTableGolden = "71caf529b29009e556fbb1f8593312f0f5af778a45e20b985e853512fabefcba"
)

// TestHarnessGoldens pins Table 1 (MR 2 and 4 over three patterns),
// the motivation table and ibbench's default fault campaign, each at
// 8 switches on two topologies.
func TestHarnessGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs about 130 small simulations")
	}
	for _, tc := range []struct {
		name, golden string
		write        func(io.Writer) error
	}{
		{"table1", table1Golden, func(w io.Writer) error {
			pats := []PatternSpec{{Kind: "uniform"}, {Kind: "bit-reversal"}, {Kind: "hot-spot", Fraction: 0.1}}
			for _, mr := range []int{2, 4} {
				rows, err := Table1(tinyScale(), 4, mr, pats, []int{32})
				if err != nil {
					return err
				}
				if err := WriteTable1(w, rows); err != nil {
					return err
				}
			}
			return nil
		}},
		{"motivation", motivationGolden, func(w io.Writer) error {
			rows, err := Motivation(tinyScale())
			if err != nil {
				return err
			}
			return WriteMotivation(w, rows)
		}},
		{"faults", faultTableGolden, func(w io.Writer) error {
			// ibbench -exp faults -sizes 8: quick scale, two seeds, 4
			// links, MR 2 and the default campaign.
			sc := QuickScale()
			sc.Sizes = []int{8}
			camp, err := faults.Load("rand:4:15000@50000-150000; autoreconfig:10000")
			if err != nil {
				return err
			}
			rows, err := FaultCampaign(sc, 4, 2, camp, 1)
			if err != nil {
				return err
			}
			return WriteFaultTable(w, rows)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.write(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.golden {
				t.Fatalf("%s hash %s, want golden %s (output drifted):\n%s", tc.name, got, tc.golden, buf.Bytes())
			}
		})
	}
}
