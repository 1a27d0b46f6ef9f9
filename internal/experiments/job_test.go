package experiments

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func testJob() JobSpec {
	return JobSpec{
		Switches: 8, Links: 4, TopoSeed: 1,
		MR: 2, Enhanced: true,
		Pattern: PatternSpec{Kind: "uniform"}, PacketSize: 32,
		AdaptiveFraction: 1, Load: 0.01, Seed: 1,
		WarmupNs: 5_000, MeasureNs: 20_000, DrainGraceNs: 5_000,
	}
}

// TestJobHashPinned pins testJob's content address to its value before
// the sharded engine and its relaxed mode were removed: the canonical
// input still carries "lagNs":0, so every stored artifact keeps its
// address.
func TestJobHashPinned(t *testing.T) {
	const want = "57cedc6eef55be25b7763e0bfb31dd406c5626d8bc1e1a7df3e9eb7d48183c15"
	if got := testJob().Hash(); got != want {
		t.Fatalf("testJob hash %s, want %s\ncanonical input: %s", got, want, testJob().CanonicalInput())
	}
}

// TestJobHashIgnoresExec pins canonicalization rule 2: execution hints
// never move the content address, so a run on the reference
// implementations dedups against the same run on the defaults.
func TestJobHashIgnoresExec(t *testing.T) {
	base := testJob()
	variants := []ExecSpec{
		{},
		{Engine: "seq", Sched: "heap"},
		{Sched: "calendar", Arb: "scan"},
		{Check: true, Unfused: true},
	}
	want := base.Hash()
	for _, ex := range variants {
		j := base
		j.Exec = ex
		if got := j.Hash(); got != want {
			t.Fatalf("Exec %+v moved the hash: %s != %s", ex, got, want)
		}
	}
}

// TestJobHashNormalizationEquivalence pins rule 1: a tersely written
// spec and its fully explicit form share one content address.
func TestJobHashNormalizationEquivalence(t *testing.T) {
	terse := testJob()
	terse.Schema = 0
	terse.HostsPerSwitch = 0
	terse.Pattern.Kind = ""

	explicit := testJob()
	explicit.Schema = JobSchemaVersion
	explicit.HostsPerSwitch = 4
	explicit.Pattern.Kind = "uniform"

	if terse.Hash() != explicit.Hash() {
		t.Fatalf("normalized forms hash apart: %s != %s", terse.Hash(), explicit.Hash())
	}
}

// TestJobHashCoversResultInputs: every result-determining field must
// move the hash.
func TestJobHashCoversResultInputs(t *testing.T) {
	base := testJob()
	mutations := map[string]func(*JobSpec){
		"switches":   func(j *JobSpec) { j.Switches = 16 },
		"links":      func(j *JobSpec) { j.Links = 6 },
		"topoSeed":   func(j *JobSpec) { j.TopoSeed = 2 },
		"mr":         func(j *JobSpec) { j.MR = 4 },
		"enhanced":   func(j *JobSpec) { j.Enhanced = false },
		"pattern":    func(j *JobSpec) { j.Pattern = PatternSpec{Kind: "bit-reversal"} },
		"packetSize": func(j *JobSpec) { j.PacketSize = 256 },
		"fraction":   func(j *JobSpec) { j.AdaptiveFraction = 0.5 },
		"load":       func(j *JobSpec) { j.Load = 0.02 },
		"seed":       func(j *JobSpec) { j.Seed = 7 },
		"measure":    func(j *JobSpec) { j.MeasureNs = 30_000 },
		"faults":     func(j *JobSpec) { j.Faults = "rand:1:1000@2000-3000" },
		"faultSeed":  func(j *JobSpec) { j.FaultSeed = 9 },
	}
	seen := map[string]string{base.Hash(): "base"}
	for name, mut := range mutations {
		j := base
		mut(&j)
		h := j.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("mutation %q collides with %q: hash %s", name, prev, h)
		}
		seen[h] = name
	}
}

func TestJobValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*JobSpec)
		want string
	}{
		{"schema-mismatch", func(j *JobSpec) { j.Schema = 99 }, "job schema 99"},
		{"zero-switches", func(j *JobSpec) { j.Switches = 0 }, "must be positive"},
		{"bad-mr", func(j *JobSpec) { j.MR = 0 }, "must be >= 1"},
		{"bad-pattern", func(j *JobSpec) { j.Pattern.Kind = "zipf" }, `pattern "zipf" unknown`},
		{"hot-spot-no-fraction", func(j *JobSpec) { j.Pattern = PatternSpec{Kind: "hot-spot"} }, "hot-spot fraction"},
		{"nan-load", func(j *JobSpec) { j.Load = nan() }, "load"},
		{"removed-engine", func(j *JobSpec) { j.Exec.Engine = "shard" }, `exec field "engine" is "shard"`},
		{"unknown-sched", func(j *JobSpec) { j.Exec.Sched = "bogus" }, `exec field "sched": sim: unknown scheduler "bogus"`},
		{"unknown-arb", func(j *JobSpec) { j.Exec.Arb = "ticket" }, `exec field "arb" is "ticket"`},
		{"bad-faults", func(j *JobSpec) { j.Faults = "florp:1" }, "fault spec"},
		{"zero-measure", func(j *JobSpec) { j.MeasureNs = 0 }, "measurement window"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := testJob()
			tc.mut(&j)
			err := j.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.want)
			}
			if _, rerr := j.RunSpec(); rerr == nil || rerr.Error() != err.Error() {
				t.Fatalf("RunSpec = %v, want Validate's error %q", rerr, err)
			}
		})
	}
	j := testJob()
	if err := j.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
}

// TestJobRunSpec pins what RunSpec builds from a job: the windows, the
// load, the fault campaign and its seed, and the scheduler hint as the
// one engine option, none of them for a fault-free job on the default
// scheduler; and Execute runs exactly that spec.
func TestJobRunSpec(t *testing.T) {
	plain, err := testJob().RunSpec()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Faults != nil || plain.Fabric.EngineOpts != nil {
		t.Fatalf("fault-free job on the default scheduler: faults %v, engine options %v", plain.Faults, plain.Fabric.EngineOpts)
	}
	j := testJob()
	j.Faults, j.FaultSeed, j.Exec.Sched = "rand:1:1000@2000-3000", 3, "heap"
	spec, err := j.RunSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Faults == nil || spec.FaultSeed != 3 || len(spec.Fabric.EngineOpts) != 1 {
		t.Fatalf("fault job on the heap: faults %v, fault seed %d, %d engine options", spec.Faults, spec.FaultSeed, len(spec.Fabric.EngineOpts))
	}
	if spec.Traffic.LoadBytesPerNsPerHost != j.Load || spec.Warmup != 5_000 || spec.Measure != 20_000 || spec.DrainGrace != 5_000 {
		t.Fatalf("load %v, windows %d/%d/%d; want %v and 5000/20000/5000",
			spec.Traffic.LoadBytesPerNsPerHost, spec.Warmup, spec.Measure, spec.DrainGrace, j.Load)
	}
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Execute = %+v, Run(RunSpec()) = %+v", got, want)
	}
}

// TestShardModeValidation pins the gate for specs written for the
// removed sharded engine: the sequential engine, named or left
// implicit, validates; "engine":"shard" fails by field name at every
// entry point, so such a job never runs sequentially by accident.
func TestShardModeValidation(t *testing.T) {
	for _, engine := range []string{"", "seq"} {
		if err := (ExecSpec{Engine: engine}).Validate(); err != nil {
			t.Errorf("engine %q rejected: %v", engine, err)
		}
	}
	for _, engine := range []string{"shard", "warp"} {
		err := ExecSpec{Engine: engine}.Validate()
		if err == nil || !strings.Contains(err.Error(), `exec field "engine" is "`+engine+`"`) {
			t.Errorf("engine %q: Validate = %v, want the field named", engine, err)
		}
	}
	j := testJob()
	j.Exec.Engine = "shard"
	if _, err := j.Execute(); err == nil || !strings.Contains(err.Error(), `"engine"`) {
		t.Fatalf("Execute of a shard-engine job = %v, want the engine field rejected", err)
	}
}

// TestRelaxedModeValidation pins that the removed relaxed-exactness
// mode cannot be requested: a job carries no lag field, so a job
// written for that mode fails strict decoding by field name, and every
// job's canonical input encodes the exact mode's "lagNs":0 whatever
// its execution hints.
func TestRelaxedModeValidation(t *testing.T) {
	body, err := json.Marshal(testJob())
	if err != nil {
		t.Fatal(err)
	}
	relaxed := strings.Replace(string(body), `{"schema":0,`, `{"schema":0,"lagNs":500,`, 1)
	if relaxed == string(body) {
		t.Fatalf("test job JSON does not start with its schema: %s", body)
	}
	dec := json.NewDecoder(strings.NewReader(relaxed))
	dec.DisallowUnknownFields()
	var j JobSpec
	if err := dec.Decode(&j); err == nil || !strings.Contains(err.Error(), `"lagNs"`) {
		t.Fatalf("strict decode of a relaxed-mode job = %v, want unknown field \"lagNs\"", err)
	}
	for _, exec := range []ExecSpec{{}, {Engine: "seq"}, {Sched: "heap", Arb: "scan", Unfused: true, Check: true}} {
		j := testJob()
		j.Exec = exec
		if in := string(j.CanonicalInput()); !strings.Contains(in, `"lagNs":0,`) {
			t.Errorf("exec %+v: canonical input %s lacks \"lagNs\":0", exec, in)
		}
	}
}

// TestJobExecuteDeterministic: the same spec executed twice serializes
// to identical bytes — the property that makes content addressing
// byte-exact across resumes.
func TestJobExecuteDeterministic(t *testing.T) {
	j := testJob()
	r1, err := j.Execute()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := j.Execute()
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Fatalf("Execute is not reproducible:\n%s\n%s", b1, b2)
	}
	if r1.PacketsMeasured == 0 {
		t.Fatal("job measured no packets; spec too small to mean anything")
	}
}

// TestJobExecuteEngineInvariant: rule 2's soundness — the reference
// implementations (heap scheduler, scan arbiter) must produce the
// byte-identical artifact for the same address, and a stored
// "unfused" hint is ignored.
func TestJobExecuteEngineInvariant(t *testing.T) {
	def := testJob()
	ref := testJob()
	ref.Exec = ExecSpec{Sched: "heap", Arb: "scan", Unfused: true}
	if def.Hash() != ref.Hash() {
		t.Fatalf("hashes differ: %s vs %s", def.Hash(), ref.Hash())
	}
	r1, err := def.Execute()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ref.Execute()
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Fatalf("default and reference artifacts differ for one content address:\n%s\n%s", b1, b2)
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}
