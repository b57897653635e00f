package units

import (
	"fmt"
	"strconv"
	"strings"
)

// Conversions and parsers only the package's tests use.

// Kilobyte is the unit size multiple.
const Kilobyte KB = 1

// Bytes returns the size in bytes.
func (k KB) Bytes() float64 { return float64(k) * 1000 }

// MB returns the size in megabytes.
func (k KB) MB() float64 { return float64(k) / 1000 }

// Over returns the time needed to move k kilobytes at rate r.
// It returns +Inf-free results: a non-positive rate yields 0 duration for
// zero size and a very large duration otherwise is avoided by the caller;
// Over panics on r <= 0 with k > 0 because that indicates a modeling bug.
func (k KB) Over(r KBps) Seconds {
	if k == 0 {
		return 0
	}
	if r <= 0 {
		panic(fmt.Sprintf("units: %v KB over non-positive rate %v", float64(k), float64(r)))
	}
	return Seconds(float64(k) / float64(r))
}

// Times returns the amount of data moved at rate r for duration d.
func (r KBps) Times(d Seconds) KB { return KB(float64(r) * float64(d)) }

// Joules returns the energy in joules.
func (e MJ) Joules() float64 { return float64(e) / 1000 }

// PerKB divides a total energy by a data amount, yielding mJ/KB, the unit
// of the paper's per-byte power model P(sig).
func (e MJ) PerKB(k KB) float64 {
	if k == 0 {
		return 0
	}
	return float64(e) / float64(k)
}

// ParseKB parses a size string such as "350MB", "1.5GB" or "200KB".
// A bare number is interpreted as kilobytes.
func ParseKB(s string) (KB, error) {
	s = strings.TrimSpace(s)
	mult := KB(1)
	upper := strings.ToUpper(s)
	switch {
	case strings.HasSuffix(upper, "GB"):
		mult, s = gigabyte, s[:len(s)-2]
	case strings.HasSuffix(upper, "MB"):
		mult, s = Megabyte, s[:len(s)-2]
	case strings.HasSuffix(upper, "KB"):
		mult, s = Kilobyte, s[:len(s)-2]
	case strings.HasSuffix(upper, "B"):
		mult, s = Kilobyte/1000, s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("units: parse size %q: %w", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("units: negative size %q", s)
	}
	return KB(v) * mult, nil
}

// ParseKBps parses a rate string such as "450KB/s", "2MB/s" or a bare
// number of KB/s.
func ParseKBps(s string) (KBps, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimSuffix(strings.TrimSuffix(s, "/s"), "ps")
	k, err := ParseKB(s)
	if err != nil {
		return 0, err
	}
	return KBps(k), nil
}
