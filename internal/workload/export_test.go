package workload

import (
	"encoding/json"
	"io"

	"jointstream/internal/rng"
	"jointstream/internal/units"
)

// Helpers only the package's tests use.

// ArrivalSlots expands an arrival process into the first n absolute
// start slots, beginning at firstSlot. It consumes draws from src in the
// same order Generate would, so a driver can precompute a schedule that
// matches a generated workload.
func ArrivalSlots(p ArrivalProcess, n, firstSlot int, src *rng.Source) []int {
	slots := make([]int, n)
	start := firstSlot
	for i := 0; i < n; i++ {
		if p != nil && i > 0 {
			if g := p.NextGap(i, src); g > 0 {
				start += g
			}
		}
		slots[i] = start
	}
	return slots
}

// WriteSpec serializes a spec as indented JSON.
func WriteSpec(w io.Writer, s *Spec) error {
	if err := s.validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// TotalDemand returns the sum of nominal rates across sessions, useful for
// judging base-station load against capacity S.
func TotalDemand(sessions []*Session) units.KBps {
	var sum units.KBps
	for _, s := range sessions {
		sum += s.BaseRate
	}
	return sum
}
