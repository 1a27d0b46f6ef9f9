package experiments

// Job extraction: a JobSpec is the fully serializable description of
// one simulation run — the unit of work a campaign coordinator hands
// to a worker subprocess. Unlike RunSpec it contains no pointers or
// live objects: the topology is named by its generation parameters and
// seed, the traffic pattern by a PatternSpec, the fault schedule by
// its compact spec string. Everything a run's result depends on is in
// the spec, so its canonical sha256 hash is a sound content address
// for the run's artifact: same hash, byte-identical RunResult.
//
// Canonicalization rules (DESIGN.md §17 records them normatively):
//
//  1. The hash covers exactly the fields of canonicalInput, marshaled
//     with encoding/json in declaration order, every field present
//     (no omitempty), after Normalize filled defaults in.
//  2. Execution hints that cannot change the result — scheduler,
//     heavy checks, the arbiter — live in ExecSpec and are
//     EXCLUDED: a run executed with the reference implementations
//     dedups against the same run executed with the defaults, which is
//     sound because every pairing is bit-exact.
//  3. The canonical input keeps a "lagNs" field that is always 0, so
//     every content address computed before the sharded engine's
//     relaxed mode was removed stays valid.
//  4. Schema is bumped whenever run semantics change, orphaning every
//     previously cached artifact at once.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"ibasim/internal/fabric"
	"ibasim/internal/faults"
	"ibasim/internal/sim"
	"ibasim/internal/topology"
)

// topoFor regenerates the job's topology from its parameters; the
// generator is seed-deterministic, so the same spec always yields the
// identical graph.
func topoFor(j JobSpec) (*topology.Topology, error) {
	return topology.GenerateIrregular(topology.IrregularSpec{
		NumSwitches:    j.Switches,
		HostsPerSwitch: j.HostsPerSwitch,
		InterSwitch:    j.Links,
		Seed:           j.TopoSeed,
	})
}

// JobSchemaVersion is the current canonical-input schema. Bump it when
// a change makes old cached results non-reproducible (engine semantics,
// default config values, RNG streams).
const JobSchemaVersion = 1

// ExecSpec carries the execution hints of a job: knobs that select how
// the run executes but provably cannot change what it computes. They
// are excluded from the canonical input hash (see the package comment).
type ExecSpec struct {
	Engine string `json:"engine,omitempty"` // "" or "seq", the only engine
	Sched  string `json:"sched,omitempty"`  // "", "calendar" or "heap"
	Check  bool   `json:"check,omitempty"`  // heavy invariant scans

	// Unfused is decoded and ignored. It switched off hop fusion, which
	// was removed; specs stored with "unfused":true still load.
	Unfused bool `json:"unfused,omitempty"`

	Arb string `json:"arb,omitempty"` // "", "wake" or "scan" arbiter
}

// Validate checks every hint by name, so a spec asking for something
// this build cannot run fails when it is parsed rather than in each
// job's worker. Specs written for the removed sharded engine
// ("engine":"shard") fail here instead of silently running
// sequentially.
func (e ExecSpec) Validate() error {
	switch e.Engine {
	case "", "seq":
	default:
		return fmt.Errorf(`experiments: exec field "engine" is %q; the sequential engine "seq" is the only one`, e.Engine)
	}
	if _, err := sim.ParseScheduler(e.Sched); err != nil {
		return fmt.Errorf(`experiments: exec field "sched": %v`, err)
	}
	switch e.Arb {
	case "", fabric.ArbWake, fabric.ArbScan:
	default:
		return fmt.Errorf(`experiments: exec field "arb" is %q (want %q or %q)`, e.Arb, fabric.ArbWake, fabric.ArbScan)
	}
	return nil
}

// JobSpec describes one run completely. The zero value is invalid;
// fill every field (Normalize supplies the documented defaults) and
// call Validate before Execute.
type JobSpec struct {
	Schema int `json:"schema"`

	// Topology: a connected random irregular network (the paper's
	// evaluation shape), named by its generation parameters.
	Switches       int    `json:"switches"`
	HostsPerSwitch int    `json:"hostsPerSwitch"` // 0 = 4 (the paper's value)
	Links          int    `json:"links"`          // inter-switch links per switch
	TopoSeed       uint64 `json:"topoSeed"`

	// Routing: MR options per destination; Enhanced selects the
	// paper's adaptive switches vs the stock deterministic subnet.
	MR       int  `json:"mr"`
	Enhanced bool `json:"enhanced"`

	// Workload.
	Pattern          PatternSpec `json:"pattern"`
	PacketSize       int         `json:"packetSize"`
	AdaptiveFraction float64     `json:"adaptiveFraction"`
	Load             float64     `json:"load"` // bytes/ns/host
	Seed             uint64      `json:"seed"`

	// Measurement window, simulated nanoseconds.
	WarmupNs     int64 `json:"warmupNs"`
	MeasureNs    int64 `json:"measureNs"`
	DrainGraceNs int64 `json:"drainGraceNs"`

	// Faults is a compact fault-campaign spec string (faults.Parse
	// grammar; "" = fault-free). File references are deliberately not
	// allowed here: a job must be self-contained to hash soundly.
	Faults    string `json:"faults"`
	FaultSeed uint64 `json:"faultSeed"`

	// Exec is excluded from the canonical hash (rule 2).
	Exec ExecSpec `json:"exec"`
}

// canonicalInput is the exact structure hashed into a job's content
// address — JobSpec minus ExecSpec, every field explicit. Field order
// is normative; encoding/json preserves declaration order.
type canonicalInput struct {
	Schema           int     `json:"schema"`
	Switches         int     `json:"switches"`
	HostsPerSwitch   int     `json:"hostsPerSwitch"`
	Links            int     `json:"links"`
	TopoSeed         uint64  `json:"topoSeed"`
	MR               int     `json:"mr"`
	Enhanced         bool    `json:"enhanced"`
	PatternKind      string  `json:"pattern"`
	PatternFraction  float64 `json:"patternFraction"`
	PacketSize       int     `json:"packetSize"`
	AdaptiveFraction float64 `json:"adaptiveFraction"`
	Load             float64 `json:"load"`
	Seed             uint64  `json:"seed"`
	WarmupNs         int64   `json:"warmupNs"`
	MeasureNs        int64   `json:"measureNs"`
	DrainGraceNs     int64   `json:"drainGraceNs"`
	LagNs            int64   `json:"lagNs"` // always 0 (rule 3)
	Faults           string  `json:"faults"`
	FaultSeed        uint64  `json:"faultSeed"`
}

// Normalize fills the documented defaults in place: the current schema
// version, the paper's 4 hosts per switch, uniform traffic. Hashing
// and execution both normalize first, so a spec written tersely and
// the same spec written explicitly share one content address.
func (j *JobSpec) Normalize() {
	if j.Schema == 0 {
		j.Schema = JobSchemaVersion
	}
	if j.HostsPerSwitch == 0 {
		j.HostsPerSwitch = 4
	}
	if j.Pattern.Kind == "" {
		j.Pattern.Kind = "uniform"
	}
}

// CanonicalInput returns the canonical byte encoding of the job's
// result-determining inputs — the preimage of Hash.
func (j JobSpec) CanonicalInput() []byte {
	j.Normalize()
	data, err := json.Marshal(canonicalInput{
		Schema:           j.Schema,
		Switches:         j.Switches,
		HostsPerSwitch:   j.HostsPerSwitch,
		Links:            j.Links,
		TopoSeed:         j.TopoSeed,
		MR:               j.MR,
		Enhanced:         j.Enhanced,
		PatternKind:      j.Pattern.Kind,
		PatternFraction:  j.Pattern.Fraction,
		PacketSize:       j.PacketSize,
		AdaptiveFraction: j.AdaptiveFraction,
		Load:             j.Load,
		Seed:             j.Seed,
		WarmupNs:         j.WarmupNs,
		MeasureNs:        j.MeasureNs,
		DrainGraceNs:     j.DrainGraceNs,
		Faults:           j.Faults,
		FaultSeed:        j.FaultSeed,
	})
	if err != nil {
		// Only non-finite floats can fail here; Validate rejects them.
		panic(fmt.Sprintf("experiments: canonical encoding failed: %v", err))
	}
	return data
}

// Hash returns the job's content address: the lowercase hex sha256 of
// CanonicalInput.
func (j JobSpec) Hash() string {
	sum := sha256.Sum256(j.CanonicalInput())
	return hex.EncodeToString(sum[:])
}

// Validate checks the result-determining fields structurally, plus the
// execution hints in Exec (ExecSpec.Validate).
func (j JobSpec) Validate() error {
	k := j // normalized view
	k.Normalize()
	if k.Schema != JobSchemaVersion {
		return fmt.Errorf("experiments: job schema %d, this build speaks %d", k.Schema, JobSchemaVersion)
	}
	if k.Switches <= 0 || k.Links <= 0 || k.HostsPerSwitch <= 0 {
		return fmt.Errorf("experiments: job topology %d switches / %d links / %d hosts-per-switch must be positive",
			k.Switches, k.Links, k.HostsPerSwitch)
	}
	if k.MR < 1 {
		return fmt.Errorf("experiments: job MR %d must be >= 1", k.MR)
	}
	if k.PacketSize <= 0 {
		return fmt.Errorf("experiments: job packet size %d must be positive", k.PacketSize)
	}
	switch k.Pattern.Kind {
	case "uniform", "bit-reversal":
	case "hot-spot":
		if math.IsNaN(k.Pattern.Fraction) || k.Pattern.Fraction <= 0 || k.Pattern.Fraction > 1 {
			return fmt.Errorf("experiments: job hot-spot fraction %v out of (0,1]", k.Pattern.Fraction)
		}
	default:
		return fmt.Errorf("experiments: job pattern %q unknown", k.Pattern.Kind)
	}
	if math.IsNaN(k.AdaptiveFraction) || k.AdaptiveFraction < 0 || k.AdaptiveFraction > 1 {
		return fmt.Errorf("experiments: job adaptive fraction %v out of [0,1]", k.AdaptiveFraction)
	}
	if math.IsNaN(k.Load) || math.IsInf(k.Load, 0) || k.Load <= 0 {
		return fmt.Errorf("experiments: job load %v must be positive and finite", k.Load)
	}
	if k.MeasureNs <= 0 {
		return fmt.Errorf("experiments: job measurement window %dns must be positive", k.MeasureNs)
	}
	if k.WarmupNs < 0 || k.DrainGraceNs < 0 {
		return fmt.Errorf("experiments: job warmup %dns / drain grace %dns must be non-negative", k.WarmupNs, k.DrainGraceNs)
	}
	if k.Faults != "" {
		if _, err := faults.Parse(k.Faults); err != nil {
			return fmt.Errorf("experiments: job fault spec: %w", err)
		}
	}
	return k.Exec.Validate()
}

// Execute runs the job and returns its result. The result serializes
// identically whatever the Exec hints — the property that makes the
// Exec-excluded content address sound.
func (j JobSpec) Execute() (RunResult, error) {
	j.Normalize()
	if err := j.Validate(); err != nil {
		return RunResult{}, err
	}
	topo, err := topoFor(j)
	if err != nil {
		return RunResult{}, err
	}
	pattern, err := j.Pattern.build(topo.NumHosts(), j.Seed)
	if err != nil {
		return RunResult{}, err
	}
	sc := Scale{
		Warmup:     sim.Time(j.WarmupNs),
		Measure:    sim.Time(j.MeasureNs),
		DrainGrace: sim.Time(j.DrainGraceNs),
		Check:      j.Exec.Check,
		Arb:        j.Exec.Arb,
	}
	if j.Exec.Sched != "" {
		kind, _ := sim.ParseScheduler(j.Exec.Sched) // Validate checked it
		sc.EngineOpts = []sim.EngineOption{sim.WithScheduler(kind)}
	}
	spec := sc.Spec(topo, j.MR, j.PacketSize, j.AdaptiveFraction, pattern, j.Seed, j.Enhanced)
	spec.Traffic.LoadBytesPerNsPerHost = j.Load
	if j.Faults != "" {
		camp, err := faults.Parse(j.Faults)
		if err != nil {
			return RunResult{}, err
		}
		spec.Faults = camp
		spec.FaultSeed = j.FaultSeed
	}
	res, err := Run(spec)
	if err != nil {
		return RunResult{}, err
	}
	return res, nil
}
