package units

import (
	"fmt"
	"strconv"
	"strings"
)

// Parsers only the package's tests use.

// Kilobyte is the unit size multiple.
const Kilobyte KB = 1

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
