package metrics

import (
	"fmt"
	"math"
	"strings"

	"ibasim/internal/sim"
)

// Histogram accumulates latency samples in logarithmic buckets
// (powers of two nanoseconds), enough resolution for quantiles of a
// distribution spanning hundreds of nanoseconds to milliseconds.
type Histogram struct {
	buckets [64]uint64
	count   uint64
}

// Add records one sample.
func (h *Histogram) Add(v sim.Time) {
	if v < 0 {
		v = 0
	}
	b := 0
	for x := int64(v); x > 0; x >>= 1 {
		b++
	}
	h.buckets[b]++
	h.count++
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1):
// the top edge of the bucket containing it. Returns 0 with no
// samples.
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b, n := range h.buckets {
		cum += n
		if cum >= target {
			if b == 0 {
				return 0
			}
			return sim.Time(1) << uint(b) // top edge of bucket b
		}
	}
	return sim.Forever
}

// String renders a compact text sketch of the non-empty buckets.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "histogram{empty}"
	}
	var sb strings.Builder
	sb.WriteString("histogram{")
	first := true
	for b, n := range h.buckets {
		if n == 0 {
			continue
		}
		if !first {
			sb.WriteString(" ")
		}
		first = false
		lo := sim.Time(0)
		if b > 0 {
			lo = sim.Time(1) << uint(b-1)
		}
		fmt.Fprintf(&sb, "[%d,%d):%d", int64(lo), int64(sim.Time(1)<<uint(b)), n)
	}
	sb.WriteString("}")
	return sb.String()
}
