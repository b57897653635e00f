// Package units defines the physical quantities used throughout the
// simulator: data sizes, data rates, energy, power, signal strength and
// time. The simulator core works in a small set of canonical units —
// kilobytes, kilobytes per second, millijoules, milliwatts, dBm and
// seconds — matching the units used by the paper's models (Eq. 3, 4, 24).
//
// The types are defined (not aliased) float64s so that mixing, say, a rate
// into an energy expression is a compile error at API boundaries, while
// still allowing cheap conversion inside numeric kernels.
package units

import (
	"strconv"
	"strings"
)

// KB is a data size in kilobytes (1 KB = 1000 bytes in this codebase,
// matching the KB/s throughput fit of Eq. 24).
type KB float64

// KBps is a data rate in kilobytes per second.
type KBps float64

// MJ is energy in millijoules.
type MJ float64

// MW is power in milliwatts (1 mW sustained for 1 s = 1 mJ).
type MW float64

// DBm is a received signal strength indicator value in dBm. Typical
// cellular values are negative, e.g. −50 dBm (strong) to −110 dBm (weak).
type DBm float64

// Seconds is a duration in seconds. The simulator is slotted, with slot
// length τ expressed in Seconds.
type Seconds float64

// Common size multiples, expressed in KB.
const (
	Megabyte KB = 1000
	gigabyte KB = 1000 * 1000
)

// Energy returns the energy consumed by drawing power p for duration d.
func (p MW) Energy(d Seconds) MJ { return MJ(float64(p) * float64(d)) }

// String implementations render quantities with sensible precision and
// unit suffixes, so simulator output is self-describing.

func (k KB) String() string {
	switch {
	case k >= gigabyte:
		return trimFloat(float64(k)/float64(gigabyte)) + "GB"
	case k >= Megabyte:
		return trimFloat(float64(k)/float64(Megabyte)) + "MB"
	default:
		return trimFloat(float64(k)) + "KB"
	}
}

func (r KBps) String() string {
	if r >= KBps(Megabyte) {
		return trimFloat(float64(r)/1000) + "MB/s"
	}
	return trimFloat(float64(r)) + "KB/s"
}

func (e MJ) String() string {
	switch {
	case e >= 1e6:
		return trimFloat(float64(e)/1e6) + "kJ"
	case e >= 1e3:
		return trimFloat(float64(e)/1e3) + "J"
	default:
		return trimFloat(float64(e)) + "mJ"
	}
}

func (p MW) String() string {
	if p >= 1000 {
		return trimFloat(float64(p)/1000) + "W"
	}
	return trimFloat(float64(p)) + "mW"
}

func (s DBm) String() string { return trimFloat(float64(s)) + "dBm" }

func (d Seconds) String() string {
	switch {
	case d >= 3600:
		return trimFloat(float64(d)/3600) + "h"
	case d >= 60:
		return trimFloat(float64(d)/60) + "min"
	default:
		return trimFloat(float64(d)) + "s"
	}
}

func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 2, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
