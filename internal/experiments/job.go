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
	_, err := e.engineOpts()
	return err
}

// engineOpts validates the hints and returns the engine options they
// select: none for the default scheduler, else the named one.
func (e ExecSpec) engineOpts() ([]sim.EngineOption, error) {
	switch e.Engine {
	case "", "seq":
	default:
		return nil, fmt.Errorf(`experiments: exec field "engine" is %q; the sequential engine "seq" is the only one`, e.Engine)
	}
	kind, err := sim.ParseScheduler(e.Sched)
	if err != nil {
		return nil, fmt.Errorf(`experiments: exec field "sched": %v`, err)
	}
	switch e.Arb {
	case "", fabric.ArbWake, fabric.ArbScan:
	default:
		return nil, fmt.Errorf(`experiments: exec field "arb" is %q (want %q or %q)`, e.Arb, fabric.ArbWake, fabric.ArbScan)
	}
	if e.Sched == "" {
		return nil, nil
	}
	return []sim.EngineOption{sim.WithScheduler(kind)}, nil
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
	j.Normalize()
	_, _, err := j.parse()
	return err
}

// parse validates a normalized job and returns what it parsed on the
// way: the fault campaign (nil for a fault-free job) and the engine
// options of Exec.
func (j JobSpec) parse() (*faults.Campaign, []sim.EngineOption, error) {
	if j.Schema != JobSchemaVersion {
		return nil, nil, fmt.Errorf("experiments: job schema %d, this build speaks %d", j.Schema, JobSchemaVersion)
	}
	if j.Switches <= 0 || j.Links <= 0 || j.HostsPerSwitch <= 0 {
		return nil, nil, fmt.Errorf("experiments: job topology %d switches / %d links / %d hosts-per-switch must be positive",
			j.Switches, j.Links, j.HostsPerSwitch)
	}
	if j.MR < 1 {
		return nil, nil, fmt.Errorf("experiments: job MR %d must be >= 1", j.MR)
	}
	if j.PacketSize <= 0 {
		return nil, nil, fmt.Errorf("experiments: job packet size %d must be positive", j.PacketSize)
	}
	if err := j.Pattern.validate(); err != nil {
		return nil, nil, fmt.Errorf("experiments: job %w", err)
	}
	if math.IsNaN(j.AdaptiveFraction) || j.AdaptiveFraction < 0 || j.AdaptiveFraction > 1 {
		return nil, nil, fmt.Errorf("experiments: job adaptive fraction %v out of [0,1]", j.AdaptiveFraction)
	}
	if math.IsNaN(j.Load) || math.IsInf(j.Load, 0) || j.Load <= 0 {
		return nil, nil, fmt.Errorf("experiments: job load %v must be positive and finite", j.Load)
	}
	if j.MeasureNs <= 0 {
		return nil, nil, fmt.Errorf("experiments: job measurement window %dns must be positive", j.MeasureNs)
	}
	if j.WarmupNs < 0 || j.DrainGraceNs < 0 {
		return nil, nil, fmt.Errorf("experiments: job warmup %dns / drain grace %dns must be non-negative", j.WarmupNs, j.DrainGraceNs)
	}
	var camp *faults.Campaign
	if j.Faults != "" {
		var err error
		if camp, err = faults.Parse(j.Faults); err != nil {
			return nil, nil, fmt.Errorf("experiments: job fault spec: %w", err)
		}
	}
	opts, err := j.Exec.engineOpts()
	if err != nil {
		return nil, nil, err
	}
	return camp, opts, nil
}

// RunSpec returns the run Execute simulates: it normalizes the job,
// validates it as Validate does, and builds the run through Scale.Spec
// from the job's windows and exec hints, then sets the job's load. It
// normalizes once and parses the fault spec and the scheduler once.
func (j JobSpec) RunSpec() (RunSpec, error) {
	j.Normalize()
	camp, engineOpts, err := j.parse()
	if err != nil {
		return RunSpec{}, err
	}
	topo, err := topoFor(j)
	if err != nil {
		return RunSpec{}, err
	}
	pattern, err := j.Pattern.Build(topo.NumHosts(), j.Seed)
	if err != nil {
		return RunSpec{}, err
	}
	sc := Scale{
		Warmup:     sim.Time(j.WarmupNs),
		Measure:    sim.Time(j.MeasureNs),
		DrainGrace: sim.Time(j.DrainGraceNs),
		Check:      j.Exec.Check,
		Arb:        j.Exec.Arb,
		EngineOpts: engineOpts,
	}
	spec := sc.Spec(topo, j.MR, j.PacketSize, j.AdaptiveFraction, pattern, j.Seed, j.Enhanced)
	spec.Traffic.LoadBytesPerNsPerHost = j.Load
	if camp != nil {
		spec.Faults = camp
		spec.FaultSeed = j.FaultSeed
	}
	return spec, nil
}

// Execute runs the job and returns its result. The result serializes
// identically whatever the Exec hints — the property that makes the
// Exec-excluded content address sound.
func (j JobSpec) Execute() (RunResult, error) {
	spec, err := j.RunSpec()
	if err != nil {
		return RunResult{}, err
	}
	res, err := Run(spec)
	if err != nil {
		return RunResult{}, err
	}
	return res, nil
}
