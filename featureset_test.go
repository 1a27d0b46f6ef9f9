package ibasim

import (
	"io"
	"strings"
	"testing"
)

// TestFeatureSetTable walks the feature combinations a Config selects —
// topology family, source multipath, Check — through the rules
// Config.spec enforces before it builds anything: the -topo grammar and
// the irregular-only source-multipath baseline. Every supported
// combination translates, every conflict fails with its canonical
// message.
func TestFeatureSetTable(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		err  string // "" = valid; otherwise required substring
	}{
		{"zero", func(*Config) {}, ""},
		{"check-seq", func(c *Config) { c.Check = true }, ""},

		{"topo-empty", func(c *Config) { c.Topology = "" }, ""},
		{"topo-irregular", func(c *Config) { c.Topology = "irregular" }, ""},
		{"topo-fattree", func(c *Config) { c.Topology = "fattree:2,3" }, ""},
		{"topo-torus", func(c *Config) { c.Topology = "torus:4x4" }, ""},
		{"topo-torus-3d", func(c *Config) { c.Topology = "torus:2x3x4" }, ""},
		{"topo-fattree-check", func(c *Config) { c.Topology, c.Check = "fattree:2,2", true }, ""},
		{"topo-unknown", func(c *Config) { c.Topology = "hypercube:4" }, "unknown topology family"},
		{"topo-bad-shape", func(c *Config) { c.Topology = "fattree:2" }, "bad fat-tree shape"},
		{"topo-degenerate", func(c *Config) { c.Topology = "torus:1x4" }, "dimension 1 < 2"},

		{"multipath-irregular", func(c *Config) { c.Topology, c.SourceMultipath = "irregular", 2 }, ""},
		{"multipath-default-topo", func(c *Config) { c.SourceMultipath = 3 }, ""},
		{"multipath-fattree", func(c *Config) { c.Topology, c.SourceMultipath = "fattree:2,3", 2 }, "source multipath requires the irregular family"},
		{"multipath-torus", func(c *Config) { c.Topology, c.SourceMultipath = "torus:4x4", 2 }, "source multipath requires the irregular family"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			_, err := cfg.spec()
			if tc.err == "" {
				if err != nil {
					t.Fatalf("spec(%+v) = %v, want nil", cfg, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("spec(%+v) = %v, want error containing %q", cfg, err, tc.err)
			}
		})
	}
}

// TestCheckHasNoConflictRow pins the design decision that Check is
// universally compatible: the auditor only reads state, so flipping
// Check on any combination must never change the verdict.
func TestCheckHasNoConflictRow(t *testing.T) {
	for _, topo := range []string{"", "torus:4x4", "hypercube:4"} {
		for _, mp := range []int{0, 2} {
			base := DefaultConfig()
			base.Topology, base.SourceMultipath = topo, mp
			withCheck := base
			withCheck.Check = true
			_, errBase := base.spec()
			_, errCheck := withCheck.spec()
			if (errBase == nil) != (errCheck == nil) {
				t.Fatalf("Check changed verdict for topo %q multipath %d: %v vs %v", topo, mp, errBase, errCheck)
			}
		}
	}
}

// TestFeatureValidationUpFront: the library entry points reject bad
// combinations before building topologies or engines.
func TestFeatureValidationUpFront(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = "hypercube:4"
	if _, err := SimulateTraced(cfg, 8, io.Discard); err == nil || !strings.Contains(err.Error(), "unknown topology family") {
		t.Fatalf("SimulateTraced with unknown family: %v", err)
	}
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
