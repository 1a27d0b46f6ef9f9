package ibasim

import (
	"io"
	"strings"
	"testing"
)

// TestFeatureSetTable walks the compatibility table: every supported
// combination validates, every conflict fails with its canonical
// message, and -check composes with everything (the auditor only
// reads state, so no feature can exclude it).
func TestFeatureSetTable(t *testing.T) {
	cases := []struct {
		name string
		f    FeatureSet
		err  string // "" = valid; otherwise required substring
	}{
		{"zero", FeatureSet{}, ""},
		// The sequential engine's defaults spelled out: the only engine
		// has no name to give, so its explicit knobs are the arbiter
		// and the topology family.
		{"seq", FeatureSet{Arb: "wake", Topo: "irregular"}, ""},
		{"trace-seq", FeatureSet{PacketTrace: true, Arb: "wake", Topo: "irregular"}, ""},
		{"trace-default-engine", FeatureSet{PacketTrace: true}, ""},

		{"check-seq", FeatureSet{Check: true}, ""},
		{"check-trace", FeatureSet{PacketTrace: true, Check: true}, ""},

		{"campaign-seq", FeatureSet{Campaign: true}, ""},
		{"campaign-check", FeatureSet{Campaign: true, Check: true}, ""},
		{"trace-in-campaign", FeatureSet{Campaign: true, PacketTrace: true}, "packet tracing is unsupported inside campaign workers"},

		// The arbiter composes with everything — tracing, campaigns,
		// Check — so its only conflict is an unknown name, and earlier
		// rows win over it.
		{"arb-wake", FeatureSet{Arb: "wake"}, ""},
		{"arb-scan", FeatureSet{Arb: "scan"}, ""},
		{"arb-wake-trace", FeatureSet{PacketTrace: true, Arb: "wake"}, ""},
		{"arb-scan-trace", FeatureSet{PacketTrace: true, Arb: "scan"}, ""},
		{"arb-campaign-check", FeatureSet{Campaign: true, Check: true, Arb: "wake"}, ""},
		{"arb-unknown", FeatureSet{Arb: "ticket"}, `unknown arbiter "ticket"`},
		{"arb-unknown-with-check", FeatureSet{Arb: "ticket", Check: true}, `unknown arbiter "ticket"`},
		{"arb-unknown-loses-to-trace", FeatureSet{Campaign: true, PacketTrace: true, Arb: "ticket"}, "packet tracing is unsupported inside campaign workers"},

		// Topology families compose with Check; conflicts are a
		// malformed grammar or the irregular-only source-multipath
		// baseline on a structured family.
		{"topo-empty", FeatureSet{Topo: ""}, ""},
		{"topo-irregular", FeatureSet{Topo: "irregular"}, ""},
		{"topo-fattree", FeatureSet{Topo: "fattree:2,3"}, ""},
		{"topo-torus", FeatureSet{Topo: "torus:4x4"}, ""},
		{"topo-torus-3d", FeatureSet{Topo: "torus:2x3x4"}, ""},
		{"topo-fattree-check", FeatureSet{Topo: "fattree:2,2", Check: true}, ""},
		{"topo-unknown", FeatureSet{Topo: "hypercube:4"}, "unknown topology family"},
		{"topo-bad-shape", FeatureSet{Topo: "fattree:2"}, "bad fat-tree shape"},
		{"topo-degenerate", FeatureSet{Topo: "torus:1x4"}, "dimension 1 < 2"},
		{"topo-unknown-loses-to-arb", FeatureSet{Arb: "ticket", Topo: "hypercube:4"}, `unknown arbiter "ticket"`},
		{"multipath-irregular", FeatureSet{Topo: "irregular", SourceMultipath: 2}, ""},
		{"multipath-default-topo", FeatureSet{SourceMultipath: 3}, ""},
		{"multipath-fattree", FeatureSet{Topo: "fattree:2,3", SourceMultipath: 2}, "source multipath requires the irregular family"},
		{"multipath-torus", FeatureSet{Topo: "torus:4x4", SourceMultipath: 2}, "source multipath requires the irregular family"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.f.Validate()
			if tc.err == "" {
				if err != nil {
					t.Fatalf("Validate(%+v) = %v, want nil", tc.f, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("Validate(%+v) = %v, want error containing %q", tc.f, err, tc.err)
			}
		})
	}
}

// TestCheckHasNoConflictRow pins the design decision that Check is
// universally compatible: flipping Check on any feature combination
// must never change the verdict.
func TestCheckHasNoConflictRow(t *testing.T) {
	for _, tr := range []bool{false, true} {
		for _, camp := range []bool{false, true} {
			for _, arb := range []string{"", "wake", "scan", "ticket"} {
				for _, topo := range []string{"", "torus:4x4", "hypercube:4"} {
					for _, mp := range []int{0, 2} {
						base := FeatureSet{PacketTrace: tr, Campaign: camp, Arb: arb, Topo: topo, SourceMultipath: mp}
						withCheck := base
						withCheck.Check = true
						errBase, errCheck := base.Validate(), withCheck.Validate()
						if (errBase == nil) != (errCheck == nil) {
							t.Fatalf("Check changed verdict for %+v: %v vs %v", base, errBase, errCheck)
						}
					}
				}
			}
		}
	}
}

// TestFeatureValidationUpFront: the library entry points reject bad
// combinations before building topologies or engines.
func TestFeatureValidationUpFront(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Arb = "ticket"
	if _, err := SimulateTraced(cfg, 8, io.Discard); err == nil ||
		!strings.Contains(err.Error(), `unknown arbiter "ticket"`) {
		t.Fatalf("SimulateTraced with unknown arbiter: %v", err)
	}

	cfg = DefaultConfig()
	cfg.Topology = "hypercube:4"
	if _, err := Simulate(cfg); err == nil || !strings.Contains(err.Error(), "unknown topology family") {
		t.Fatalf("Simulate with unknown family: %v", err)
	}

	cfg = DefaultConfig()
	cfg.Topology = "fattree:2,3"
	cfg.SourceMultipath = 2
	if _, err := Simulate(cfg); err == nil || !strings.Contains(err.Error(), "source multipath requires the irregular family") {
		t.Fatalf("Simulate with multipath on a fat-tree: %v", err)
	}
}
