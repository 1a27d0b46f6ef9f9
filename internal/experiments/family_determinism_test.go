package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ibasim/internal/fabric"
)

// Per-family golden hashes: the SHA-256 of the serialized Figure-3
// style sweep for one canonical shape per structured family, captured
// from the engine-interface seed implementation. Like figure3Golden,
// they pin the simulation bit-exactly across refactors; regenerate
// only for an intentional model change, never to make a refactor pass.
const (
	fatTreeGolden = "40541fcf6f53bf620fe3a2a3855a119da6907028fd45dd1cec72fba7fb28cb97"
	torusGolden   = "82591d9643cc1fdb22459666b2594194c3c3c5f17c6130c83d07ca84cc87babc"
)

// familyScale mirrors the QuickScale geometry the irregular golden
// uses, shortened the same way.
func familyScale() Scale {
	sc := QuickScale()
	sc.Topologies = 1
	return sc
}

// familyArtifact serializes one canonical structured-family sweep:
// fattree:2,3 (12 switches, 8 hosts, D-mod-K escape) or torus:3x3
// (9 switches, 2 hosts each, dimension-order escape). mutate adjusts
// the Scale for engine/auditor variants.
func familyArtifact(t *testing.T, topo string, mutate func(*Scale)) []byte {
	t.Helper()
	fam, err := ParseFamily(topo)
	if err != nil {
		t.Fatal(err)
	}
	sc := familyScale()
	if topo == "torus:3x3" {
		sc.HostsPerSw = 2
	}
	if mutate != nil {
		mutate(&sc)
	}
	res, err := Figure3Family(sc, fam)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func familyHash(t *testing.T, topo string, mutate func(*Scale)) string {
	t.Helper()
	sum := sha256.Sum256(familyArtifact(t, topo, mutate))
	return hex.EncodeToString(sum[:])
}

// TestFamilySweepsDeterministic guards the determinism contract for
// the structured families exactly as TestFigure3Deterministic does for
// the irregular panel: same seed, byte-identical artifact run-to-run,
// pinned by a committed golden hash.
func TestFamilySweepsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four structured-family sweeps")
	}
	for _, tc := range []struct{ topo, golden string }{
		{"fattree:2,3", fatTreeGolden},
		{"torus:3x3", torusGolden},
	} {
		t.Run(tc.topo, func(t *testing.T) {
			first := familyArtifact(t, tc.topo, nil)
			second := familyArtifact(t, tc.topo, nil)
			if !bytes.Equal(first, second) {
				t.Fatal("two runs with the same seed differ")
			}
			sum := sha256.Sum256(first)
			if got := hex.EncodeToString(sum[:]); got != tc.golden {
				t.Fatalf("artifact hash %s, want golden %s (simulation output drifted)", got, tc.golden)
			}
		})
	}
}

// TestFamilySweepsEngineInvariant pins the structured-family sweeps to
// the same golden under the heavy invariant auditor and on the
// scan-arbiter reference: auditing and execution strategy must never
// perturb results, on any topology family.
func TestFamilySweepsEngineInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four structured-family sweeps")
	}
	variants := []struct {
		name   string
		mutate func(*Scale)
	}{
		{"check", func(sc *Scale) { sc.Check = true }},
		{"scan-arb", func(sc *Scale) { sc.Arb = fabric.ArbScan }},
	}
	for _, tc := range []struct{ topo, golden string }{
		{"fattree:2,3", fatTreeGolden},
		{"torus:3x3", torusGolden},
	} {
		for _, v := range variants {
			t.Run(tc.topo+"/"+v.name, func(t *testing.T) {
				if got := familyHash(t, tc.topo, v.mutate); got != tc.golden {
					t.Fatalf("%s artifact hash %s, want golden %s", v.name, got, tc.golden)
				}
			})
		}
	}
}
