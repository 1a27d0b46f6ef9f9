// Command ibtopo generates the simulator's topologies — the paper's
// random irregular networks plus the structured families (k-ary n-tree
// fat-trees, 2D/3D tori) — and reports their structural and routing
// properties: degree, diameter, average distance, escape-path
// inflation, and the routing-option census behind Table 2.
//
//	ibtopo -switches 16 -links 4 -seed 1
//	ibtopo -switches 64 -links 6 -seed 3 -dot   # Graphviz output
//	ibtopo -topo fattree:2,3                    # D-mod-K fat-tree report
//	ibtopo -topo torus:4x4 -dot                 # coordinate-labelled DOT
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ibasim/internal/experiments"
	"ibasim/internal/routing"
	"ibasim/internal/topology"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its environment injected so tests can drive the
// command end to end: flag errors return 2 (the flag package's own
// convention), generation/verification failures return 1 after an
// "ibtopo: ..." line on stderr, success prints the report to stdout
// and returns 0.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ibtopo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topoFam := fs.String("topo", "irregular", "topology family: irregular, fattree:K,N or torus:AxB[xC]")
	switches := fs.Int("switches", 16, "number of switches (irregular family)")
	hosts := fs.Int("hosts", 4, "hosts per switch (irregular and torus families)")
	links := fs.Int("links", 4, "inter-switch links per switch (irregular family)")
	seed := fs.Uint64("seed", 1, "generation seed (irregular family)")
	mr := fs.Int("mr", 4, "cap for the routing-option census")
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of the report")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fam, err := experiments.ParseFamily(*topoFam)
	if err != nil {
		fmt.Fprintln(stderr, "ibtopo:", err)
		return 1
	}
	topo, err := fam.Topology(topology.IrregularSpec{
		NumSwitches:    *switches,
		HostsPerSwitch: *hosts,
		InterSwitch:    *links,
		Seed:           *seed,
	})
	if err != nil {
		fmt.Fprintln(stderr, "ibtopo:", err)
		return 1
	}

	if *dot {
		fmt.Fprintln(stdout, "graph subnet {")
		for _, l := range topo.Links {
			if fam.Irregular() {
				fmt.Fprintf(stdout, "  s%d -- s%d;\n", l.A, l.B)
			} else {
				// Family-aware labels: tree level/position, torus
				// coordinates.
				fmt.Fprintf(stdout, "  %q -- %q;\n", topo.NodeName(l.A), topo.NodeName(l.B))
			}
		}
		fmt.Fprintln(stdout, "}")
		return 0
	}

	build := fam.Routing()
	if build == nil {
		build = routing.UpDownBuilder(-1)
	}
	eng, err := build(topo)
	if err != nil {
		fmt.Fprintln(stderr, "ibtopo:", err)
		return 1
	}
	det := eng.Deterministic
	if err := eng.Verify(); err != nil {
		fmt.Fprintln(stderr, "ibtopo: deadlock check FAILED:", err)
		return 1
	}
	fa := eng.Adaptive

	if fam.Irregular() {
		fmt.Fprintf(stdout, "topology:          %d switches, %d links/switch, %d hosts/switch (seed %d)\n",
			*switches, *links, *hosts, *seed)
	} else {
		fmt.Fprintf(stdout, "topology:          %s, %d switches, %d hosts\n",
			fam, topo.NumSwitches, topo.NumHosts())
	}
	fmt.Fprintf(stdout, "links:             %d\n", len(topo.Links))
	fmt.Fprintf(stdout, "diameter:          %d\n", topo.Diameter())
	fmt.Fprintf(stdout, "avg distance:      %.3f\n", topo.AvgDistance())
	if det.UD != nil {
		fmt.Fprintf(stdout, "up*/down* root:    switch %d\n", det.UD.Root)
	} else {
		minimal := ""
		if eng.MinimalEscape {
			minimal = " (minimal)"
		}
		fmt.Fprintf(stdout, "routing engine:    %s escape%s\n", eng.Name, minimal)
	}
	table, shortest := det.AvgPathLength()
	fmt.Fprintf(stdout, "avg path length:   %.3f table vs %.3f shortest (inflation %.1f%%)\n",
		table, shortest, 100*(table/shortest-1))
	fmt.Fprintf(stdout, "escape CDG:        acyclic (deadlock-free)\n")

	hist := fa.OptionsHistogram(*mr)
	total := 0
	for _, c := range hist {
		total += c
	}
	fmt.Fprintf(stdout, "routing options (cap %d), share of switch/destination pairs:\n", *mr)
	for k := 1; k < len(hist); k++ {
		fmt.Fprintf(stdout, "  %d option(s): %6.2f%%\n", k, 100*float64(hist[k])/float64(total))
	}
	return 0
}
