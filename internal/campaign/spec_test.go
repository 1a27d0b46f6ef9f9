package campaign

import (
	"strings"
	"testing"
)

const tinySpec = `{
  "name": "tiny",
  "sizes": [8],
  "links": 4,
  "mr": 2,
  "packetSizes": [32],
  "seeds": 2,
  "loadLo": 0.01,
  "warmupNs": 2000,
  "measureNs": 10000,
  "drainGraceNs": 2000
}`

func TestParseSpecStrict(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"unknown-field", `{"name":"x","sizes":[8],"links":4,"mr":2,"packetSizes":[32],"loadLo":0.01,"bogus":1}`, "unknown field"},
		{"trailing-garbage", tinySpec + `{"again":true}`, "trailing data"},
		{"no-sizes", `{"name":"x","sizes":[],"links":4,"mr":2,"packetSizes":[32],"loadLo":0.01}`, "no sizes"},
		{"bad-links", `{"name":"x","sizes":[8],"links":0,"mr":2,"packetSizes":[32],"loadLo":0.01}`, "links 0"},
		{"bad-load", `{"name":"x","sizes":[8],"links":4,"mr":2,"packetSizes":[32],"loadLo":-1}`, "loadLo"},
		{"load-hi-below-lo", `{"name":"x","sizes":[8],"links":4,"mr":2,"packetSizes":[32],"loadLo":0.1,"loadHi":0.01,"loadPoints":3}`, "loadHi"},
		{"bad-pattern", `{"name":"x","sizes":[8],"links":4,"mr":2,"packetSizes":[32],"loadLo":0.01,"patterns":["zipf"]}`, "unknown pattern"},
		{"nan-hot-spot", `{"name":"x","sizes":[8],"links":4,"mr":2,"packetSizes":[32],"loadLo":0.01,"patterns":["hot-spot:NaN"]}`, "hot-spot fraction NaN out of (0,1]"},
		// A bad fault clause fails at parse time, as emit's round trip
		// does, not when the plan expands.
		{"bad-faults", `{"name":"x","sizes":[8],"links":4,"mr":2,"packetSizes":[32],"loadLo":0.01,"faults":"bogus"}`, `campaign: faults: bad directive "bogus"`},
		{"wrong-schema", `{"schema":9,"name":"x","sizes":[8],"links":4,"mr":2,"packetSizes":[32],"loadLo":0.01}`, "spec schema 9"},
		// The sharded engine and its relaxed mode are gone; specs that
		// ask for them must fail loudly, never run sequentially.
		{"exec-engine-shard", `{"name":"x","sizes":[8],"links":4,"mr":2,"packetSizes":[32],"loadLo":0.01,"exec":{"engine":"shard"}}`, `exec field "engine" is "shard"`},
		{"exec-shards", `{"name":"x","sizes":[8],"links":4,"mr":2,"packetSizes":[32],"loadLo":0.01,"exec":{"shards":4}}`, `unknown field "shards"`},
		{"exec-partition", `{"name":"x","sizes":[8],"links":4,"mr":2,"packetSizes":[32],"loadLo":0.01,"exec":{"partition":"bfs"}}`, `unknown field "partition"`},
		{"lag-ns", `{"name":"x","sizes":[8],"links":4,"mr":2,"packetSizes":[32],"loadLo":0.01,"lagNs":500}`, `unknown field "lagNs"`},
		// A bad execution hint fails at parse time, before planning,
		// instead of failing every job's worker until the retry budget
		// runs out.
		{"exec-sched-unknown", `{"name":"x","sizes":[8],"links":4,"mr":2,"packetSizes":[32],"loadLo":0.01,"exec":{"sched":"bogus"}}`, `exec field "sched": sim: unknown scheduler "bogus"`},
		{"exec-arb-unknown", `{"name":"x","sizes":[8],"links":4,"mr":2,"packetSizes":[32],"loadLo":0.01,"exec":{"arb":"ticket"}}`, `exec field "arb" is "ticket"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.json))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseSpec = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{"name":"d","sizes":[8],"links":4,"mr":2,"packetSizes":[32],"loadLo":0.01}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Schema != SpecSchemaVersion || s.Seeds != 1 || s.FirstSeed != 1 || s.LoadPoints != 1 {
		t.Fatalf("defaults not filled: %+v", s)
	}
	if len(s.Patterns) != 1 || s.Patterns[0] != "uniform" {
		t.Fatalf("default patterns = %v", s.Patterns)
	}
	if len(s.AdaptiveFractions) != 1 || s.AdaptiveFractions[0] != 1 {
		t.Fatalf("default fractions = %v", s.AdaptiveFractions)
	}
	if s.MeasureNs == 0 || s.WarmupNs == 0 {
		t.Fatalf("default window not filled: %+v", s)
	}
}

func TestExpandPlanShape(t *testing.T) {
	s, err := ParseSpec([]byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 1 size x 1 pkt x 1 pattern x 1 fraction x 1 load x 2 seeds.
	if len(plan.Jobs) != 2 || len(plan.Groups) != 1 {
		t.Fatalf("plan = %d jobs / %d groups, want 2/1", len(plan.Jobs), len(plan.Groups))
	}
	g := plan.Groups[0]
	if len(g.JobIdx) != 2 || g.Seeds[0] != 1 || g.Seeds[1] != 2 {
		t.Fatalf("group deps = %v seeds %v", g.JobIdx, g.Seeds)
	}
	for _, j := range plan.Jobs {
		if j.Hash != j.Spec.Hash() {
			t.Fatalf("planned hash %s does not match spec hash %s", j.Hash, j.Spec.Hash())
		}
	}
}

// TestExpandDedupsIdenticalCells: listing the same adaptive fraction
// twice plans two groups that share the same underlying jobs — dedup
// by content address, the "repeated jobs are free" property.
func TestExpandDedupsIdenticalCells(t *testing.T) {
	s, err := ParseSpec([]byte(`{
	  "name": "dup", "sizes": [8], "links": 4, "mr": 2,
	  "packetSizes": [32], "seeds": 2, "loadLo": 0.01,
	  "adaptiveFractions": [1, 1]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(plan.Groups))
	}
	if len(plan.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2 (the duplicate cell must dedup)", len(plan.Jobs))
	}
	for i := range plan.Groups[0].JobIdx {
		if plan.Groups[0].JobIdx[i] != plan.Groups[1].JobIdx[i] {
			t.Fatalf("duplicate groups do not share jobs: %v vs %v",
				plan.Groups[0].JobIdx, plan.Groups[1].JobIdx)
		}
	}
}

// TestExpandExecDoesNotMoveHashes: the same sweep planned with
// different execution hints must address the same artifacts, so a
// store populated with the defaults satisfies a rerun on the reference
// implementations. The first variant is the exec block the benchmark's
// campaign spec carries.
func TestExpandExecDoesNotMoveHashes(t *testing.T) {
	base, err := ParseSpec([]byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := base.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, exec := range []string{
		`{"engine": "seq", "sched": "calendar", "arb": "wake"}`,
		`{"sched": "heap", "arb": "scan", "unfused": true, "check": true}`,
	} {
		spec, err := ParseSpec([]byte(strings.Replace(tinySpec, `"name": "tiny",`,
			`"name": "tiny", "exec": `+exec+`,`, 1)))
		if err != nil {
			t.Fatalf("exec %s: %v", exec, err)
		}
		p2, err := spec.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if len(p1.Jobs) != len(p2.Jobs) {
			t.Fatalf("exec %s: job counts differ: %d vs %d", exec, len(p1.Jobs), len(p2.Jobs))
		}
		for i := range p1.Jobs {
			if p1.Jobs[i].Hash != p2.Jobs[i].Hash {
				t.Fatalf("exec %s: job %d: exec hints moved the hash: %s vs %s", exec, i, p1.Jobs[i].Hash, p2.Jobs[i].Hash)
			}
		}
	}
}
