package core

import "fmt"

// SelectionConfig captures the two design axes of §4.3 for choosing
// the final output port among the options a Lookup returns:
//
//   - AtArbitration: when true, the choice is (re-)made each time the
//     switch arbitrates, using up-to-date port status (the paper notes
//     this "may lead to better performance"); when false, the choice
//     is made once, immediately after the forwarding-table access, and
//     the packet then waits for that specific port.
//   - StatusAware: when true, the switch prefers the option whose
//     next-hop adaptive queue has the most free credits ("selecting
//     the output port with more buffer space"); when false, the
//     selection is static (pseudo-random among the options).
type SelectionConfig struct {
	AtArbitration bool
	StatusAware   bool
}

// DefaultSelection is the configuration the paper's evaluation uses:
// "the output port is selected at arbitration time considering the
// status of the requested output ports and the number of credits
// available" (§5.1).
func DefaultSelection() SelectionConfig {
	return SelectionConfig{AtArbitration: true, StatusAware: true}
}

func (c SelectionConfig) String() string {
	when, how := "immediate", "static"
	if c.AtArbitration {
		when = "arbitration"
	}
	if c.StatusAware {
		how = "status-aware"
	}
	return fmt.Sprintf("%s/%s", when, how)
}
