package routing

import "fmt"

// FA is the Fully Adaptive routing function of §3: for each
// (switch, destination switch) pair it provides
//
//   - Escape[s][d]: the up*/down* deterministic next hop (always
//     usable, guarantees deadlock freedom through the escape queues);
//   - Adaptive[s][d]: every neighbour on a minimal path toward d
//     (fully adaptive minimal options, served through adaptive queues).
//
// Minimality of the adaptive options is what bounds livelock: a packet
// only makes non-minimal moves on the escape path, and escape moves
// are taken only when no minimal option has room (§3's preference for
// minimal paths).
type FA struct {
	Det *Deterministic
	// Adaptive[s][d] lists minimal next-hop switches from s toward d,
	// sorted ascending; empty when s == d.
	Adaptive [][][]int
}

// NewFA computes the FA routing function on top of a deterministic
// escape routing (up*/down*, D-mod-K, dimension-order, ...). Adaptive
// options are the minimal next hops of the full topology regardless of
// family; only host-bearing destinations get option sets, matching the
// escape tables. Every option list is a subslice of one backing array,
// capped at its own length; a pair with no options keeps a nil list.
func NewFA(det *Deterministic) *FA {
	t := det.Topo
	n := t.NumSwitches
	// Links are undirected, so m's distance to d is row d's entry m:
	// one row serves every switch's test toward d.
	dists := t.AllDistances()
	adj := t.Adjacency()
	// Count the options first, so one array holds them all.
	total := 0
	for d, toD := range dists {
		if !det.Routes(d) {
			continue
		}
		for s := 0; s < n; s++ {
			if s == d {
				continue
			}
			for _, m := range adj[s] {
				if toD[m] == toD[s]-1 {
					total++
				}
			}
		}
	}
	flat := make([]int, 0, total)
	lists := make([][]int, n*n)
	adaptive := make([][][]int, n)
	for s := 0; s < n; s++ {
		adaptive[s] = lists[s*n : (s+1)*n : (s+1)*n]
		for d, toD := range dists {
			if s == d || !det.Routes(d) {
				continue
			}
			start := len(flat)
			for _, m := range adj[s] { // sorted, so options come sorted
				if toD[m] == toD[s]-1 {
					flat = append(flat, m)
				}
			}
			if end := len(flat); end > start {
				adaptive[s][d] = flat[start:end:end]
			}
		}
	}
	return &FA{Det: det, Adaptive: adaptive}
}

// Escape returns the escape (up*/down*) next hop from s toward d.
func (f *FA) Escape(s, d int) int { return f.Det.NextHop[s][d] }

// Options returns the adaptive next hops from s toward d capped at
// maxOptions entries (the paper's "MR" — maximum routing options per
// switch); maxOptions <= 0 means uncapped.
func (f *FA) Options(s, d, maxOptions int) []int {
	opts := f.Adaptive[s][d]
	if maxOptions > 0 && len(opts) > maxOptions {
		opts = opts[:maxOptions]
	}
	return opts
}

// Validate checks FA invariants for every pair: adaptive options are
// exactly the minimal next hops, and the escape hop exists.
func (f *FA) Validate() error {
	t := f.Det.Topo
	dists := t.AllDistances()
	for s := 0; s < t.NumSwitches; s++ {
		for d := 0; d < t.NumSwitches; d++ {
			if s == d || !f.Det.Routes(d) {
				continue
			}
			if f.Escape(s, d) < 0 {
				return fmt.Errorf("routing: missing escape hop %d -> %d", s, d)
			}
			for _, m := range f.Adaptive[s][d] {
				if dists[m][d] != dists[s][d]-1 {
					return fmt.Errorf("routing: non-minimal adaptive option %d from %d to %d", m, s, d)
				}
			}
			if len(f.Adaptive[s][d]) == 0 {
				return fmt.Errorf("routing: no adaptive option %d -> %d (graph connected, so impossible)", s, d)
			}
		}
	}
	return nil
}

// OptionsHistogram returns the distribution of routing-option counts
// over (switch, destination) pairs with s != d: hist[k] is the number
// of pairs offering exactly k = min(#minimal next hops, cap) options.
// This is the quantity behind the paper's Table 2 ("average percentage
// of routing options at each switch for each destination", capped at
// MR); internal/experiments formats it into the table's rows.
func (f *FA) OptionsHistogram(cap int) []int {
	hist := make([]int, cap+1) // hist[k] = pairs with k options
	t := f.Det.Topo
	for s := 0; s < t.NumSwitches; s++ {
		for d := 0; d < t.NumSwitches; d++ {
			if s == d || !f.Det.Routes(d) {
				continue
			}
			k := len(f.Adaptive[s][d])
			if k > cap {
				k = cap
			}
			if k < 1 {
				k = 1
			}
			hist[k]++
		}
	}
	return hist
}
