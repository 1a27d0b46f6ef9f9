// Package topology models InfiniBand subnet topologies: switches,
// hosts (end-node ports) attached to switches, and the point-to-point
// links between them. It provides the irregular random generator used
// throughout the paper's evaluation plus analysis helpers (distances,
// diameter, connectivity checks).
package topology

import (
	"fmt"
	"sort"
)

// Link is an undirected inter-switch cable between switches A and B.
// A < B always holds, so a link has a canonical representation and the
// "at most one link between neighbouring switches" constraint from the
// paper is checkable by set membership.
type Link struct {
	A, B int
}

// Topology describes a subnet: NumSwitches switches, end-node ports
// attached to switches, and the inter-switch links. Switch IDs are
// 0..NumSwitches-1.
//
// Host attachment comes in two shapes. The uniform shape (HostsAt nil)
// attaches HostsPerSwitch hosts to every switch, so host h lives on
// switch h / HostsPerSwitch — the paper's irregular networks and the
// torus family. The explicit shape (HostsAt non-nil) gives every
// switch its own host count — fat-trees, where only leaf switches
// carry hosts. Host IDs are dense either way: switch s owns hosts
// [hostBase(s), hostBase(s)+HostCount(s)).
type Topology struct {
	NumSwitches    int
	HostsPerSwitch int
	// SwitchPorts is the total port count of each switch (inter-switch
	// ports + host ports). It bounds the inter-switch degree.
	SwitchPorts int
	Links       []Link

	// HostsAt, when non-nil, overrides the uniform host attachment:
	// HostsAt[s] hosts sit on switch s. Its length must equal
	// NumSwitches. HostsPerSwitch is ignored when set.
	HostsAt []int

	// Names, when non-nil, gives every switch a family-aware label
	// (tree level/position, torus coordinates) used by diagnostics:
	// cycle reports, DOT output, the ibtopo report.
	Names []string

	adj      [][]int // adjacency lists, built lazily by Adjacency
	hostBase []int   // prefix sums over HostsAt, built lazily

	// linkSet and deg index Links for HasLink and Degree: bit
	// a*NumSwitches+b is set for every link (a, b), and deg[s] counts
	// switch s's links. Built from Links on first use and kept in step
	// by AddLink and the generator's swaps. Like the adjacency cache,
	// they assume Links changes only through those once a topology has
	// been queried.
	linkSet []uint64
	deg     []int
}

// New returns a topology with the given shape and no links.
func New(numSwitches, hostsPerSwitch, switchPorts int) *Topology {
	return &Topology{
		NumSwitches:    numSwitches,
		HostsPerSwitch: hostsPerSwitch,
		SwitchPorts:    switchPorts,
	}
}

// NumHosts returns the total number of end-node ports in the subnet.
func (t *Topology) NumHosts() int {
	if t.HostsAt == nil {
		return t.NumSwitches * t.HostsPerSwitch
	}
	base := t.hostBases()
	return base[len(base)-1]
}

// hostBases returns the cached prefix sums of HostsAt: hostBase[s] is
// the first host ID on switch s and hostBase[NumSwitches] the total.
// Only meaningful with explicit attachment (HostsAt non-nil).
func (t *Topology) hostBases() []int {
	if t.hostBase != nil {
		return t.hostBase
	}
	base := make([]int, t.NumSwitches+1)
	for s, h := range t.HostsAt {
		base[s+1] = base[s] + h
	}
	t.hostBase = base
	return base
}

// HostCount returns the number of hosts attached to switch s.
func (t *Topology) HostCount(s int) int {
	if t.HostsAt == nil {
		return t.HostsPerSwitch
	}
	return t.HostsAt[s]
}

// HostSwitch returns the switch a host is attached to.
func (t *Topology) HostSwitch(host int) int {
	if t.HostsAt == nil {
		return host / t.HostsPerSwitch
	}
	base := t.hostBases()
	// Binary search the prefix sums: the switch whose range holds host.
	lo, hi := 0, t.NumSwitches-1
	for lo < hi {
		mid := (lo + hi) / 2
		if base[mid+1] <= host {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// HostPortIndex returns the index of the host among its switch's
// hosts, which is also the switch port the host occupies (host ports
// come first: 0..HostCount-1, inter-switch ports follow).
func (t *Topology) HostPortIndex(host int) int {
	if t.HostsAt == nil {
		return host % t.HostsPerSwitch
	}
	return host - t.hostBases()[t.HostSwitch(host)]
}

// InterSwitchPortBase returns the first inter-switch port index of
// switch s: its host ports occupy 0..InterSwitchPortBase-1.
func (t *Topology) InterSwitchPortBase(s int) int { return t.HostCount(s) }

// SwitchHosts returns the host IDs attached to switch s.
func (t *Topology) SwitchHosts(s int) []int {
	if t.HostsAt == nil {
		out := make([]int, t.HostsPerSwitch)
		for i := range out {
			out[i] = s*t.HostsPerSwitch + i
		}
		return out
	}
	base := t.hostBases()
	out := make([]int, t.HostsAt[s])
	for i := range out {
		out[i] = base[s] + i
	}
	return out
}

// NodeName returns the family-aware label of switch s, falling back
// to the bare switch ID when the topology carries no names.
func (t *Topology) NodeName(s int) string {
	if t.Names != nil && s >= 0 && s < len(t.Names) {
		return t.Names[s]
	}
	return fmt.Sprintf("%d", s)
}

// AddLink inserts the undirected link (a, b). It returns an error if
// the link is a self-loop, duplicates an existing link, or would exceed
// either endpoint's inter-switch port budget.
func (t *Topology) AddLink(a, b int) error {
	if a == b {
		return fmt.Errorf("topology: self-loop on switch %d", a)
	}
	if a < 0 || b < 0 || a >= t.NumSwitches || b >= t.NumSwitches {
		return fmt.Errorf("topology: link (%d,%d) out of range", a, b)
	}
	if a > b {
		a, b = b, a
	}
	if t.HasLink(a, b) {
		return fmt.Errorf("topology: duplicate link (%d,%d)", a, b)
	}
	if t.Degree(a) >= t.SwitchPorts-t.HostCount(a) || t.Degree(b) >= t.SwitchPorts-t.HostCount(b) {
		return fmt.Errorf("topology: link (%d,%d) exceeds port budget %d/%d",
			a, b, t.SwitchPorts-t.HostCount(a), t.SwitchPorts-t.HostCount(b))
	}
	t.Links = append(t.Links, Link{A: a, B: b})
	t.flipLink(Link{A: a, B: b})
	t.deg[a]++
	t.deg[b]++
	t.adj = nil
	return nil
}

// indexLinks builds linkSet and deg from Links if they are not built
// yet. A link out of range or not in canonical A < B order is left out
// of linkSet, as HasLink never matched one; Validate reports it.
func (t *Topology) indexLinks() {
	if t.linkSet != nil {
		return
	}
	n := t.NumSwitches
	t.linkSet = make([]uint64, (n*n+63)/64)
	t.deg = make([]int, n)
	for _, l := range t.Links {
		if l.A >= 0 && l.A < l.B && l.B < n {
			t.flipLink(l)
		}
		for _, s := range [2]int{l.A, l.B} {
			if s >= 0 && s < n {
				t.deg[s]++
			}
		}
	}
}

// flipLink toggles link l's bit in linkSet: a swap clears the two
// links it removes and sets the two it adds.
func (t *Topology) flipLink(l Link) {
	bit := l.A*t.NumSwitches + l.B
	t.linkSet[bit/64] ^= 1 << (bit % 64)
}

// HasLink reports whether switches a and b are directly connected.
func (t *Topology) HasLink(a, b int) bool {
	if a > b {
		a, b = b, a
	}
	if a < 0 || b >= t.NumSwitches || a == b {
		return false
	}
	t.indexLinks()
	bit := a*t.NumSwitches + b
	return t.linkSet[bit/64]&(1<<(bit%64)) != 0
}

// Degree returns the inter-switch degree of switch s.
func (t *Topology) Degree(s int) int {
	if s < 0 || s >= t.NumSwitches {
		return 0
	}
	t.indexLinks()
	return t.deg[s]
}

// Adjacency returns the neighbour list of every switch, sorted
// ascending for determinism. The lists share one backing array, each
// capped at its own length. The result is cached; callers must not
// mutate it.
func (t *Topology) Adjacency() [][]int {
	if t.adj != nil {
		return t.adj
	}
	t.indexLinks()
	adj := make([][]int, t.NumSwitches)
	flat := make([]int, 2*len(t.Links))
	off := 0
	for s, d := range t.deg {
		if d > 0 {
			adj[s] = flat[off : off : off+d]
			off += d
		}
	}
	for _, l := range t.Links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	for _, ns := range adj {
		sort.Ints(ns)
	}
	t.adj = adj
	return adj
}

// Neighbors returns the sorted neighbour switches of s.
func (t *Topology) Neighbors(s int) []int { return t.Adjacency()[s] }

// Connected reports whether the switch graph is connected. An empty
// graph and a single switch are connected.
func (t *Topology) Connected() bool {
	if t.NumSwitches <= 1 {
		return true
	}
	seen := make([]bool, t.NumSwitches)
	stack := []int{0}
	seen[0] = true
	count := 1
	adj := t.Adjacency()
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range adj[s] {
			if !seen[n] {
				seen[n] = true
				count++
				stack = append(stack, n)
			}
		}
	}
	return count == t.NumSwitches
}

// Validate checks the structural invariants the paper's generator
// promises: connectivity, degree within the port budget, no duplicate
// links (AddLink enforces the latter two; Validate re-checks for
// topologies built by other means).
func (t *Topology) Validate() error {
	if t.NumSwitches <= 0 {
		return fmt.Errorf("topology: %d switches", t.NumSwitches)
	}
	if t.HostsAt != nil && len(t.HostsAt) != t.NumSwitches {
		return fmt.Errorf("topology: HostsAt has %d entries for %d switches",
			len(t.HostsAt), t.NumSwitches)
	}
	if t.Names != nil && len(t.Names) != t.NumSwitches {
		return fmt.Errorf("topology: Names has %d entries for %d switches",
			len(t.Names), t.NumSwitches)
	}
	for s := 0; s < t.NumSwitches; s++ {
		if h := t.HostCount(s); h < 0 || t.SwitchPorts < h {
			return fmt.Errorf("topology: switch %d: %d ports cannot host %d end nodes",
				s, t.SwitchPorts, h)
		}
	}
	// Index Links afresh, without the cached index: this check must not
	// trust one built before Links was edited, and it must not write
	// one, since networks built concurrently validate one shared
	// topology.
	n := t.NumSwitches
	seen := make([]uint64, (n*n+63)/64)
	deg := make([]int, n)
	for _, l := range t.Links {
		if l.A >= l.B || l.B >= n || l.A < 0 {
			return fmt.Errorf("topology: malformed link %+v", l)
		}
		bit := l.A*n + l.B
		if seen[bit/64]&(1<<(bit%64)) != 0 {
			return fmt.Errorf("topology: duplicate link %+v", l)
		}
		seen[bit/64] |= 1 << (bit % 64)
		deg[l.A]++
		deg[l.B]++
	}
	for s := 0; s < n; s++ {
		if d, budget := deg[s], t.SwitchPorts-t.HostCount(s); d > budget {
			return fmt.Errorf("topology: switch %d degree %d exceeds budget %d", s, d, budget)
		}
	}
	if !t.Connected() {
		return fmt.Errorf("topology: disconnected")
	}
	return nil
}

// Without returns a copy of the topology with the given links removed.
// Switch count, host attachment and port budget are unchanged — the
// copy describes the same physical network with some cables failed, so
// routing can be recomputed while port numbering (derived from the
// ORIGINAL adjacency) stays valid.
func (t *Topology) Without(failed ...Link) *Topology {
	dead := map[Link]bool{}
	for _, l := range failed {
		if l.A > l.B {
			l.A, l.B = l.B, l.A
		}
		dead[l] = true
	}
	out := New(t.NumSwitches, t.HostsPerSwitch, t.SwitchPorts)
	out.HostsAt = t.HostsAt
	out.Names = t.Names
	for _, l := range t.Links {
		if !dead[l] {
			out.Links = append(out.Links, l)
		}
	}
	return out
}

// Distances returns the hop distance from src to every switch (BFS on
// the switch graph). Unreachable switches get -1.
func (t *Topology) Distances(src int) []int {
	dist := make([]int, t.NumSwitches)
	t.bfs(src, dist, make([]int, 0, t.NumSwitches))
	return dist
}

// bfs fills dist with the hop distance from src, using queue's
// storage for the BFS frontier.
func (t *Topology) bfs(src int, dist, queue []int) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	adj := t.Adjacency()
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		for _, n := range adj[s] {
			if dist[n] == -1 {
				dist[n] = dist[s] + 1
				queue = append(queue, n)
			}
		}
	}
}

// AllDistances returns the full switch-to-switch hop distance matrix,
// its rows carved from one backing array.
func (t *Topology) AllDistances() [][]int {
	n := t.NumSwitches
	out := make([][]int, n)
	flat := make([]int, n*n)
	queue := make([]int, 0, n)
	for s := range out {
		out[s] = flat[s*n : (s+1)*n : (s+1)*n]
		t.bfs(s, out[s], queue)
	}
	return out
}

// Diameter returns the longest shortest path between any two switches,
// or -1 if the graph is disconnected.
func (t *Topology) Diameter() int {
	max := 0
	for s := 0; s < t.NumSwitches; s++ {
		for _, d := range t.Distances(s) {
			if d == -1 {
				return -1
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

// AvgDistance returns the mean hop distance over ordered switch pairs
// (s != d), or 0 for a single switch.
func (t *Topology) AvgDistance() float64 {
	if t.NumSwitches < 2 {
		return 0
	}
	sum, n := 0, 0
	for s := 0; s < t.NumSwitches; s++ {
		for d, v := range t.Distances(s) {
			if d != s && v > 0 {
				sum += v
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// String summarizes the topology shape.
func (t *Topology) String() string {
	return fmt.Sprintf("topology{switches: %d, hosts/switch: %d, ports: %d, links: %d}",
		t.NumSwitches, t.HostsPerSwitch, t.SwitchPorts, len(t.Links))
}
