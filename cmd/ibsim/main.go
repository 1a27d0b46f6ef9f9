// Command ibsim runs one InfiniBand subnet simulation and prints the
// paper's observables: offered and accepted traffic (bytes/ns/switch)
// and average packet latency (ns).
//
// Examples:
//
//	ibsim -switches 16 -load 0.02
//	ibsim -switches 64 -links 6 -mr 4 -adaptive-frac 1 -pattern hot-spot -hotspot 0.10
//	ibsim -plain -adaptive-frac 0        # stock deterministic subnet
//
// Fault-injection campaigns (see the faults package for the grammar):
//
//	ibsim -faults 'flap@60000:0-1:20000; autoreconfig:10000'
//	ibsim -faults 'rand:4:15000@50000-200000; autoreconfig:10000' -fault-seed 7
//	ibsim -faults @campaign.txt          # the same grammar, read from a file
package main

import (
	"flag"
	"fmt"
	"os"

	"ibasim"
	"ibasim/internal/experiments"
	"ibasim/internal/prof"
)

func main() {
	cfg := ibasim.DefaultConfig()
	flag.StringVar(&cfg.Topology, "topo", "irregular", "topology family: irregular, fattree:K,N or torus:AxB[xC] (structured families bring their own routing engine)")
	flag.IntVar(&cfg.Switches, "switches", cfg.Switches, "number of switches (irregular family)")
	flag.IntVar(&cfg.HostsPerSwitch, "hosts", cfg.HostsPerSwitch, "hosts per switch")
	flag.IntVar(&cfg.LinksPerSwitch, "links", cfg.LinksPerSwitch, "inter-switch links per switch (4 or 6 in the paper)")
	flag.Uint64Var(&cfg.TopologySeed, "topo-seed", cfg.TopologySeed, "topology generation seed")
	flag.IntVar(&cfg.RoutingOptions, "mr", cfg.RoutingOptions, "routing options per destination (1 escape + MR-1 adaptive)")
	plain := flag.Bool("plain", false, "use stock deterministic switches (baseline)")
	flag.StringVar(&cfg.Pattern, "pattern", cfg.Pattern, "traffic pattern: uniform, bit-reversal, hot-spot")
	flag.Float64Var(&cfg.HotSpotFraction, "hotspot", 0.10, "hot-spot traffic share (with -pattern hot-spot)")
	flag.IntVar(&cfg.PacketSize, "size", cfg.PacketSize, "packet size in bytes")
	flag.Float64Var(&cfg.AdaptiveFraction, "adaptive-frac", cfg.AdaptiveFraction, "fraction of packets requesting adaptive routing")
	flag.Float64Var(&cfg.Load, "load", cfg.Load, "offered load per host, bytes/ns")
	flag.Int64Var(&cfg.WarmupNs, "warmup", cfg.WarmupNs, "warm-up time, ns")
	flag.Int64Var(&cfg.MeasureNs, "measure", cfg.MeasureNs, "measurement window, ns")
	flag.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "traffic/selection seed")
	flag.StringVar(&cfg.Faults, "faults", "", "fault campaign: spec string (e.g. 'flap@60000:0-1:20000; autoreconfig:10000'), or @file holding one")
	flag.Uint64Var(&cfg.FaultSeed, "fault-seed", 0, "seed for the campaign's randomized elements (rand: flaps)")
	flag.BoolVar(&cfg.Check, "check", false, "enable heavy invariant audits (whole-fabric credit and escape-CDG scans; results are bit-identical)")
	traceN := flag.Int("packet-trace", 0, "record and print the last N packet lifecycle events")
	sweep := flag.Bool("sweep", false, "sweep offered load and print the full curve")
	loadLo := flag.Float64("load-lo", 0.002, "sweep: lowest per-host load")
	loadHi := flag.Float64("load-hi", 0.20, "sweep: highest per-host load")
	loadN := flag.Int("load-n", 10, "sweep: number of load points")
	pcfg := prof.Flags()
	flag.Parse()

	// A malformed -topo fails before profiling starts; the library
	// checks everything else when the run is built.
	if _, err := experiments.ParseFamily(cfg.Topology); err != nil {
		fmt.Fprintln(os.Stderr, "ibsim:", err)
		os.Exit(1)
	}

	stopProf, err := pcfg.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibsim:", err)
		os.Exit(1)
	}
	defer stopProf()

	cfg.AdaptiveSwitches = !*plain

	if *sweep {
		pts, err := ibasim.Sweep(cfg, ibasim.Loads(*loadLo, *loadHi, *loadN))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ibsim:", err)
			os.Exit(1)
		}
		fmt.Printf("# offered\taccepted\tavg-latency-ns\n")
		for _, p := range pts {
			fmt.Printf("%.5f\t%.5f\t%.0f\n", p.Offered, p.Accepted, p.AvgLatency)
		}
		fmt.Printf("# saturation throughput: %.5f bytes/ns/switch\n", ibasim.Throughput(pts))
		return
	}

	var res ibasim.Result
	if *traceN > 0 {
		traced, err := ibasim.SimulateTraced(cfg, *traceN, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ibsim:", err)
			os.Exit(1)
		}
		res = traced.Result
		fmt.Printf("adaptive hops:   %.1f%% of %d forwarding decisions\n",
			traced.AdaptiveShare*100, traced.Audit.HopChecks)
	} else {
		r, err := ibasim.Simulate(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ibsim:", err)
			os.Exit(1)
		}
		res = r
	}
	mode := "enhanced (adaptive)"
	if *plain {
		mode = "stock (deterministic)"
	}
	if cfg.Topology != "" && cfg.Topology != "irregular" {
		fmt.Printf("topology:        %s\n", cfg.Topology)
	} else {
		fmt.Printf("switches:        %d (%d links/switch, %d hosts/switch)\n",
			cfg.Switches, cfg.LinksPerSwitch, cfg.HostsPerSwitch)
	}
	fmt.Printf("switch mode:     %s, MR=%d\n", mode, cfg.RoutingOptions)
	fmt.Printf("workload:        %s, %d B packets, %.0f%% adaptive\n",
		cfg.Pattern, cfg.PacketSize, cfg.AdaptiveFraction*100)
	fmt.Printf("offered traffic: %.5f bytes/ns/switch\n", res.OfferedPerSwitch)
	fmt.Printf("accepted:        %.5f bytes/ns/switch\n", res.AcceptedPerSwitch)
	fmt.Printf("avg latency:     %.0f ns over %d packets\n", res.AvgLatencyNs, res.PacketsMeasured)
	if cfg.Check {
		fmt.Printf("audit:           %d hop checks, %d heavy scans, %d violations\n",
			res.Audit.HopChecks, res.Audit.HeavyTicks, res.Audit.Violations)
	}
	if cfg.Faults != "" {
		d := res.Degraded
		fmt.Printf("faults:          %d injected, %d repairs, %d reconfigs\n",
			d.FaultsInjected, d.Repairs, d.Reconfigs)
		fmt.Printf("drops:           %d (unroutable %d, dead-port %d, timeout %d), %d retries, %d lost\n",
			d.Dropped(), d.DroppedUnroutable, d.DroppedOnDeadPort, d.DroppedTimeout, d.Retries, d.Lost)
		if d.RecoveryLatencyNs >= 0 {
			fmt.Printf("recovery:        %d ns (first fault to first post-reconfig delivery)\n", d.RecoveryLatencyNs)
		} else {
			fmt.Printf("recovery:        not observed\n")
		}
		fmt.Printf("watchdog:        %d samples, %d violations\n", d.WatchdogSamples, d.WatchdogViolations)
		if d.WatchdogViolations > 0 {
			fmt.Fprintf(os.Stderr, "ibsim: %s\n", d.FirstViolation)
			os.Exit(1)
		}
	}
}
