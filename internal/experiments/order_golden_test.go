package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"ibasim/internal/core"
	"ibasim/internal/topology"
)

// selectionModes lists the four §4.3 selection modes: arbitration or
// immediate time, status-aware or static.
var selectionModes = []core.SelectionConfig{
	{AtArbitration: true, StatusAware: true},
	{AtArbitration: true, StatusAware: false},
	{AtArbitration: false, StatusAware: true},
	{AtArbitration: false, StatusAware: false},
}

// resultDigest returns the hex sha256 of res's JSON encoding. JSON
// writes every float in its shortest exact form, so equal digests mean
// bit-identical RunResults.
func resultDigest(t testing.TB, res RunResult) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// withMR4 widens spec to four routing options (LMC 2). At MR 2 the
// one adaptive slot makes static selection's adaptive draw Intn(1), a
// constant, so the arbitration/static leg repeats the status-aware
// one; three adaptive slots make the static draws real.
func withMR4(spec RunSpec) RunSpec {
	spec.LMC, spec.MR = 2, 4
	return spec
}

// diffMultipathSpec is diffSpec on plain switches with two
// source-selected deterministic paths: every generated packet draws
// its path from the network RNG, so the draw order is the order of
// generation.
func diffMultipathSpec(topo *topology.Topology) RunSpec {
	spec := diffSpec(topo)
	spec.Fabric.AdaptiveSwitches = false
	spec.SourceMultipath, spec.Fabric.SourceMultipath = 2, 2
	return spec
}

// TestSelectionModeGoldens pins complete RunResults, as sha256
// digests, in the runs whose results follow the dispatch order of
// same-instant events and of RNG draws: every selection mode on the
// uniform, storm, fault and retry fixtures, the MR 4 fixtures where
// static selection has real choices, and source multipath. The retry
// fixtures are the ones whose runs time out, drop and re-inject
// packets and re-select after Reroute. The default-mode
// goldens (Figure 3, the family sweeps) run status-aware selection at
// arbitration time, which draws no RNG, so they cannot see such a
// reordering; these digests can.
func TestSelectionModeGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many full simulations")
	}
	topo := diffTopo(t)
	fixtures := []struct {
		name    string
		spec    RunSpec
		digests []string // one per selectionModes entry
	}{
		{"uniform", diffSpec(topo), []string{
			"b6462b388d009998e01e3f8b672596da1f044740da627719beb1c3556e358948",
			"b6462b388d009998e01e3f8b672596da1f044740da627719beb1c3556e358948",
			"0a58bae26a84083d8bb8ede8e781d7252a99471ee92485a917e61390756fd3f1",
			"51a4189a92c647f7a1196ba3fbbdf7fd2fef452468a551a60eb05cc4c43d445b",
		}},
		{"storm", diffStormSpec(t, topo), []string{
			"deae05b55aba34b8481b0f3edca66f8413e485d15f00a7f62cb851a2234652cc",
			"deae05b55aba34b8481b0f3edca66f8413e485d15f00a7f62cb851a2234652cc",
			"deae05b55aba34b8481b0f3edca66f8413e485d15f00a7f62cb851a2234652cc",
			"5e20835a45b49cc51756e8c53bbcaa39049797c5ac89f82df7344fab38a67283",
		}},
		{"fault", diffFaultSpec(topo), []string{
			"37c1ed21e8c13bde39b9907490efd27aa19b66907729704fa863d75832782a3d",
			"37c1ed21e8c13bde39b9907490efd27aa19b66907729704fa863d75832782a3d",
			"e0e6f1ba77794257f476f599a6edbe2e22bf96545007abd5648dc5d0d0a9b7b7",
			"15ca390b35c87be55d59850167ca313f9db49f2dcd9c6a269b95ebadab92adcd",
		}},
		{"uniform-mr4", withMR4(diffSpec(topo)), []string{
			"29b1566c6b40690ed09296495644c3f14cff24fb567c841ec19f545b819a0a93",
			"4c7516fa8688453ac1fb7510b3fffda24104e8c1f52d835cea76a9a5697e97b9",
			"7436b8c5e4ba627b4114a1bd2b89df466ace52f8793431d658af442a120fa3a7",
			"beffac556b12f7d9e75c3e7aaaa334727323f3cf2c78fa257a734670659881ba",
		}},
		// The retry fixture drops and re-injects thousands of packets.
		// In the immediate modes its runs also record watchdog
		// forward-progress lines that are saturation, not faults (the
		// watchdog's false positive, ROADMAP item 5); fixing the
		// watchdog will move these digests on purpose.
		{"retry", diffRetrySpec(t, topo), []string{
			"f25b5c651fe777f1bed684959a681620da9ea0992f9f03fbe57e492cb6dbbf0b",
			"f25b5c651fe777f1bed684959a681620da9ea0992f9f03fbe57e492cb6dbbf0b",
			"3346f3a5dc22491b771b4e51915f369de2124a1c2cb9d5c93e59a7e8e44c0f0a",
			"91e2a1cf03c2f9e9e1b3d1e892dd9df0cb531628d656f21264ef1f90b68cdeea",
		}},
		{"retry-mr4", withMR4(diffRetrySpec(t, topo)), []string{
			"0b0172996cc363f02baecdd6753256e9bded2be82aafa9cb452f8e68dc3f9a43",
			"925b38f9d44f69aa5d5b589d432f460f64ea3110fa535410dbbbbf7670152c45",
			"204de2ae2a85fe125d9bdf6e17f08a968c574a06736f3e93a2c16b6537b72f6f",
			"e8cdd91e3f776bf81b4b3adcbcde10b86518bccb9587ee8869146e59aba623a3",
		}},
		{"storm-mr4", withMR4(diffStormSpec(t, topo)), []string{
			"6c352e55984e0860fa1a2c905468596598bee4e272cde3284ab03aaf0ccfa82f",
			"f6b1e5eaac193b59241f92621b36f033ec5b8010dd9cc858775a8dc7ecc7d654",
			"f1fb979b18262f292acd006be7ed22f01da71b1ba6018802d79c1c33cd6837f7",
			"5268c693e817a2c520afc922f4f78e1a5f09d96b832b3385e6fac570414eebb5",
		}},
	}
	for _, f := range fixtures {
		for i, sel := range selectionModes {
			s := f.spec
			s.Fabric.Selection = sel
			res, err := Run(s)
			if err != nil {
				t.Fatalf("%s %s: %v", f.name, sel, err)
			}
			if got := resultDigest(t, res); got != f.digests[i] {
				t.Errorf("%s %s: RunResult digest %s, want %s", f.name, sel, got, f.digests[i])
			}
			if strings.HasPrefix(f.name, "retry") && res.Retry.Retries == 0 {
				t.Errorf("%s %s: no packet was retried", f.name, sel)
			}
		}
	}
	res, err := Run(diffMultipathSpec(topo))
	if err != nil {
		t.Fatal(err)
	}
	const multipath = "b6b516b1c8a44ae490f2c4e6cb07f53fcd4a80ca491508aa851df25e8bc55755"
	if got := resultDigest(t, res); got != multipath {
		t.Errorf("source multipath: RunResult digest %s, want %s", got, multipath)
	}
}
