package subnet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"

	"ibasim/internal/fabric"
	"ibasim/internal/ib"
	"ibasim/internal/routing"
	"ibasim/internal/topology"
)

// constructionDigest hashes what a fabric build programs: every
// switch's linear forwarding table read through Get over all LIDs,
// then the escape routing's NextHop and PathLen and the FA option
// lists the build computed.
func constructionDigest(net *fabric.Network, fa *routing.FA) string {
	h := sha256.New()
	for _, sw := range net.Switches {
		tab := sw.Table()
		for lid := 0; lid <= int(net.Plan.MaxLID()); lid++ {
			putInt(h, int(tab.Get(ib.LID(lid))))
		}
	}
	n := net.Topo.NumSwitches
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			putInt(h, fa.Det.NextHop[s][d])
			putInt(h, fa.Det.PathLen[s][d])
			putInt(h, len(fa.Adaptive[s][d]))
			for _, m := range fa.Adaptive[s][d] {
				putInt(h, m)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func putInt(h hash.Hash, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	h.Write(b[:])
}

// TestConstructionGolden pins fabric construction byte for byte:
// topology generation, the up*/down* and structured escape tables, the
// FA option sets and every programmed forwarding-table entry, on the
// paper's irregular sizes at both MRs, a mixed stock/enhanced subnet,
// source multipath, the two structured families and a staged
// reconfiguration around a failed link.
func TestConstructionGolden(t *testing.T) {
	want := map[string]string{
		"irregular-8-seed1-mr2":  "0a53cea2ea75e9c6eb718e9b292db257c688abca3028cd7605399b282ee93ead",
		"irregular-8-seed1-mr4":  "d39470592fcc5f21fe4d7008bae633e43e41fe9f8e73826af603a40d05472529",
		"irregular-8-seed2-mr2":  "0b331dfc6fedcb7e14fc2203bc1977fb011add068c218c3727feb903891f5db1",
		"irregular-8-seed2-mr4":  "d6f6774ebe337416e56989d35490ec9ac42198d64b90fb2ad76af4d8837d532e",
		"irregular-8-seed3-mr2":  "8f51545fb4255908a372d242bfc066f85b15ffc857e0a1b2dddfac9a3faf9ba5",
		"irregular-8-seed3-mr4":  "50c50db257997b63a00ce10b3c8cde44c77c7745706ce6e13bb06a4d447459d4",
		"irregular-16-seed1-mr2": "0559a4a66e2b6e1bf0e21b9e0dcb495d403af155927aa504cbddc70eb06b910b",
		"irregular-16-seed1-mr4": "07ab09a7a6abfcb3547d39d79ce3cd5f26602d503c0f07c4b0e22080e28512a2",
		"irregular-16-seed2-mr2": "5af4802245dec6d29d54ab975dd946be6069886c6423b2051f34033a14e90c09",
		"irregular-16-seed2-mr4": "f8405122d2103fcb251897145eaffec46fc7f9ec003457c31ed4917e42c0aa87",
		"irregular-16-seed3-mr2": "3d1225204a2af7e359daa9964fbb89d74ec4919f038eb74e2e8348694fc7cc13",
		"irregular-16-seed3-mr4": "eaa9760d984d2101d66f2bbab8b4cc79903cb42ecd8bcdcd46bff27fcf12fdff",
		"irregular-64-seed1-mr2": "d36dbcdcfaa92ece9ef3d951bb8006a073ed452ac3bc0d226b52943f62dff0ca",
		"irregular-64-seed1-mr4": "d0d3116e1ebd47ee1bdd9ba394754299379b35a3119bb0e0eee8c62c0dbc8c53",
		"irregular-64-seed2-mr2": "13d7ee1ca16015bdeccc37d17b3332c1e8060166e9621a7c3fab8e4755ba911d",
		"irregular-64-seed2-mr4": "4c3ec757172a915de6c2c506914a09e84dd87081b8b82200bded1cb03541ba13",
		"irregular-64-seed3-mr2": "9ffbeb79dcbee7a953ad5548a034ee649c7430e38ad1cb22279206a3a885c44a",
		"irregular-64-seed3-mr4": "ef268730ed4895db9a1d72939943f7191a141915ffd6bd3474ba3ca3f3790109",
		"mixed-16-seed1":         "2f311a7012efac88c48503631aa23611087886161c6f29293fbd8fd695e5bb66",
		"multipath-16-seed1":     "d49af6521e581e2e5406e7482d79cf930e4e17fc676c3383e233afd6b15890de",
		"fattree-4-3":            "d91a2c8b7042b5b0ff7e5e88f0d029641e4bf6c8981743a8eca92a5ba7196cae",
		"torus-4x4":              "3bf347e4087af5ecd0073aea6c2dc5f556f24e89af916c8630f66b252d5aa00a",
		"reconfigured-16-seed1":  "b84e56293c5cfee7e1378a4110065b5cc57b013462241515f55e5e61258efecf",
	}
	check := func(t *testing.T, name, got string) {
		t.Helper()
		if w, ok := want[name]; !ok || got != w {
			t.Errorf("%s: construction digest %s, want %s", name, got, w)
		}
	}

	for _, n := range []int{8, 16, 64} {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, mr := range []int{2, 4} {
				name := fmt.Sprintf("irregular-%d-seed%d-mr%d", n, seed, mr)
				t.Run(name, func(t *testing.T) {
					lmc := uint(1)
					if mr > 2 {
						lmc = 2
					}
					net := buildNet(t, n, 4, seed, lmc, true)
					fa, err := Configure(net, Options{MaxRoutingOptions: mr, Root: -1})
					if err != nil {
						t.Fatal(err)
					}
					check(t, name, constructionDigest(net, fa))
				})
			}
		}
	}

	t.Run("mixed-16-seed1", func(t *testing.T) {
		net := mixedNet(t, 16, 1)
		fa, err := Configure(net, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		check(t, "mixed-16-seed1", constructionDigest(net, fa))
	})

	t.Run("multipath-16-seed1", func(t *testing.T) {
		net := buildMultipathNet(t, 16, 4, 1, 1, 2)
		fa, err := Configure(net, Options{Root: -1, SourceMultipath: 2})
		if err != nil {
			t.Fatal(err)
		}
		check(t, "multipath-16-seed1", constructionDigest(net, fa))
	})

	t.Run("fattree-4-3", func(t *testing.T) {
		spec := topology.FatTreeSpec{Arity: 4, Levels: 3}
		topo, err := topology.GenerateFatTree(spec)
		if err != nil {
			t.Fatal(err)
		}
		net := netFromTopo(t, topo, 1, true)
		fa, err := Configure(net, Options{MaxRoutingOptions: 2, Root: -1, Engine: routing.FatTreeBuilder(spec)})
		if err != nil {
			t.Fatal(err)
		}
		check(t, "fattree-4-3", constructionDigest(net, fa))
	})

	t.Run("torus-4x4", func(t *testing.T) {
		spec := topology.TorusSpec{Dims: []int{4, 4}, HostsPerSwitch: 2}
		topo, err := topology.GenerateTorus(spec)
		if err != nil {
			t.Fatal(err)
		}
		net := netFromTopo(t, topo, 1, true)
		fa, err := Configure(net, Options{MaxRoutingOptions: 2, Root: -1, Engine: routing.TorusBuilder(spec)})
		if err != nil {
			t.Fatal(err)
		}
		check(t, "torus-4x4", constructionDigest(net, fa))
	})

	t.Run("reconfigured-16-seed1", func(t *testing.T) {
		net := buildNet(t, 16, 4, 1, 1, true)
		if _, err := Configure(net, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		if err := reconfigure(t, net, DefaultOptions(), net.Topo.Links[0]); err != nil {
			t.Fatal(err)
		}
		eng, err := routing.UpDownBuilder(-1)(net.Topo.Without(net.DownLinks()...))
		if err != nil {
			t.Fatal(err)
		}
		check(t, "reconfigured-16-seed1", constructionDigest(net, eng.Adaptive))
	})
}

// TestConstructionCycleGolden pins the escape-CDG cycle reports of
// cyclic routings: the tables TamperSwapTableSlots leaves, whose escape
// slots hold first minimal hops, read back as a Deterministic routing
// and checked by VerifyDeadlockFreeAll alone and after the computed
// up*/down* tables (the multipath union, whose successor lists keep
// routing order), once with family-style switch names.
func TestConstructionCycleGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		seed  uint64
		named bool
		union bool
		want  string
	}{
		{"irregular-16-seed1", 16, 1, false, false, "routing: escape CDG cycle: (0->1) (1->2) (2->4) (4->8) (8->0) (0->1)"},
		{"irregular-16-seed1-named", 16, 1, true, false, "routing: escape CDG cycle: (sw00->sw01) (sw01->sw02) (sw02->sw04) (sw04->sw08) (sw08->sw00) (sw00->sw01)"},
		{"irregular-64-seed2", 64, 2, false, false, "routing: escape CDG cycle: (0->4) (4->44) (44->2) (2->9) (9->17) (17->11) (11->13) (13->28) (28->24) (24->27) (27->6) (6->19) (19->1) (1->34) (34->10) (10->7) (7->8) (8->23) (23->0) (0->4)"},
		{"irregular-64-seed2-union", 64, 2, false, true, "routing: escape CDG cycle: (0->4) (4->44) (44->2) (2->9) (9->17) (17->40) (40->15) (15->25) (25->10) (10->7) (7->8) (8->23) (23->0) (0->4)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := topology.GenerateIrregular(topology.IrregularSpec{
				NumSwitches: tc.n, HostsPerSwitch: 4, InterSwitch: 4, Seed: tc.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.named {
				topo.Names = make([]string, tc.n)
				for s := range topo.Names {
					topo.Names[s] = fmt.Sprintf("sw%02d", s)
				}
			}
			net := netFromTopo(t, topo, 1, true)
			fa, err := Configure(net, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			net.TamperSwapTableSlots()
			n := net.Topo.NumSwitches
			swapped := &routing.Deterministic{Topo: net.Topo, NextHop: make([][]int, n)}
			for s := range swapped.NextHop {
				swapped.NextHop[s] = make([]int, n)
				for d := range swapped.NextHop[s] {
					swapped.NextHop[s][d] = -1
					if d == s {
						continue
					}
					host := net.Topo.SwitchHosts(d)[0]
					port := net.Switches[s].Table().Get(net.Plan.BaseLID(host))
					if m, ok := net.NeighborAt(s, port); ok {
						swapped.NextHop[s][d] = m
					}
				}
			}
			dets := []*routing.Deterministic{swapped}
			if tc.union {
				dets = []*routing.Deterministic{fa.Det, swapped}
			}
			err = routing.VerifyDeadlockFreeAll(dets)
			if err == nil {
				t.Fatal("swapped tables verified acyclic")
			}
			if got := err.Error(); got != tc.want {
				t.Fatalf("cycle report\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}
