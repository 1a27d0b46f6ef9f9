package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ibasim/internal/experiments"
)

// ArtifactSchemaVersion versions the worker's result encoding stored
// in the store body.
const ArtifactSchemaVersion = 1

// Artifact is the store body for a completed job: the run's result
// stamped with the input address it answers for. A worker encodes it,
// the coordinator verifies and stores it. The bytes are the same
// whatever the job's Exec hints.
type Artifact struct {
	Schema int                   `json:"schema"`
	Input  string                `json:"input"`
	Result experiments.RunResult `json:"result"`
}

// EncodeArtifact builds the canonical store body for a result.
func EncodeArtifact(hash string, res experiments.RunResult) ([]byte, error) {
	return json.Marshal(Artifact{Schema: ArtifactSchemaVersion, Input: hash, Result: res})
}

// DecodeArtifact strictly parses a store body and checks that it
// answers for the expected input hash.
func DecodeArtifact(body []byte, wantHash string) (*Artifact, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var a Artifact
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("%w: %s: bad artifact: %v", ErrCorrupt, wantHash, err)
	}
	if a.Schema != ArtifactSchemaVersion {
		return nil, fmt.Errorf("%w: %s: artifact schema %d, want %d", ErrCorrupt, wantHash, a.Schema, ArtifactSchemaVersion)
	}
	if a.Input != wantHash {
		return nil, fmt.Errorf("%w: %s: artifact answers for %s", ErrCorrupt, wantHash, a.Input)
	}
	return &a, nil
}

// Cell is one aggregated row: a group's min/avg/max over the seeds
// whose results were available. In degrade mode missing seeds are
// annotated per cell instead of failing the aggregation.
type Cell struct {
	Group
	N            int      // results aggregated
	MissingSeeds []uint64 // seeds with no stored result (degrade mode)

	AccMin, AccAvg, AccMax float64 // accepted bytes/ns/switch
	LatMin, LatAvg, LatMax float64 // avg latency ns

	// Retry diagnostics summed/maxed over the aggregated seeds.
	Retries     uint64
	MaxAttempts int
}

// Table is the campaign's aggregate artifact.
type Table struct {
	Spec  *Spec
	Cells []Cell
}

// Aggregate folds stored results into the per-group table. get fetches
// an artifact body by content address — the store's Get, or an
// in-memory map for the in-process oracle. A missing result fails the
// aggregation unless degrade is set, in which case the cell records
// the missing seeds and aggregates what exists; a corrupt result
// always fails.
func Aggregate(plan *Plan, get func(hash string) ([]byte, error), degrade bool) (*Table, error) {
	t := &Table{Spec: plan.Spec}
	for _, g := range plan.Groups {
		cell := Cell{Group: g}
		for i, idx := range g.JobIdx {
			job := plan.Jobs[idx]
			body, err := get(job.Hash)
			if err != nil {
				if degrade && errors.Is(err, ErrNotFound) {
					cell.MissingSeeds = append(cell.MissingSeeds, g.Seeds[i])
					continue
				}
				return nil, fmt.Errorf("campaign: aggregate (size %d seed %d): %w", g.Size, g.Seeds[i], err)
			}
			art, err := DecodeArtifact(body, job.Hash)
			if err != nil {
				return nil, fmt.Errorf("campaign: aggregate (size %d seed %d): %w", g.Size, g.Seeds[i], err)
			}
			r := art.Result
			if cell.N == 0 {
				cell.AccMin, cell.AccMax = r.AcceptedPerSwitch, r.AcceptedPerSwitch
				cell.LatMin, cell.LatMax = r.AvgLatencyNs, r.AvgLatencyNs
			} else {
				cell.AccMin = min(cell.AccMin, r.AcceptedPerSwitch)
				cell.AccMax = max(cell.AccMax, r.AcceptedPerSwitch)
				cell.LatMin = min(cell.LatMin, r.AvgLatencyNs)
				cell.LatMax = max(cell.LatMax, r.AvgLatencyNs)
			}
			cell.AccAvg += r.AcceptedPerSwitch
			cell.LatAvg += r.AvgLatencyNs
			cell.Retries += r.Retry.Retries
			if r.Retry.MaxAttempts > cell.MaxAttempts {
				cell.MaxAttempts = r.Retry.MaxAttempts
			}
			cell.N++
		}
		if cell.N > 0 {
			cell.AccAvg /= float64(cell.N)
			cell.LatAvg /= float64(cell.N)
		}
		t.Cells = append(t.Cells, cell)
	}
	return t, nil
}

// missingCol renders a cell's missing-seed annotation: "-" when
// complete, the comma-joined seed list otherwise.
func missingCol(c Cell) string {
	if len(c.MissingSeeds) == 0 {
		return "-"
	}
	parts := make([]string, len(c.MissingSeeds))
	for i, s := range c.MissingSeeds {
		parts[i] = strconv.FormatUint(s, 10)
	}
	return strings.Join(parts, ",")
}

// stat renders an aggregated statistic, "-" when no seed contributed.
func stat(n int, format string, v float64) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf(format, v)
}

// Write prints the table in a fixed, byte-stable layout: an
// interrupted-then-resumed campaign and an uninterrupted one produce
// identical bytes, which the CI smoke test diffs.
func (t *Table) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# campaign %s: min/avg/max over %d seed(s), job schema %d\n",
		t.Spec.Name, t.Spec.Seeds, experiments.JobSchemaVersion); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "# size\tpkt\tpattern\tfrac\tload\tok\tmissing\tacc-min\tacc-avg\tacc-max\tlat-min\tlat-avg\tlat-max\tretries\tmax-att"); err != nil {
		return err
	}
	for _, c := range t.Cells {
		_, err := fmt.Fprintf(w, "%d\t%d\t%s\t%.2f\t%.4f\t%d/%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%d\t%d\n",
			c.Size, c.PacketSize, c.Pattern.String(), c.AdaptiveFraction, c.Load,
			c.N, len(c.JobIdx), missingCol(c),
			stat(c.N, "%.4f", c.AccMin), stat(c.N, "%.4f", c.AccAvg), stat(c.N, "%.4f", c.AccMax),
			stat(c.N, "%.1f", c.LatMin), stat(c.N, "%.1f", c.LatAvg), stat(c.N, "%.1f", c.LatMax),
			c.Retries, c.MaxAttempts)
		if err != nil {
			return err
		}
	}
	return nil
}
