package workload

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"jointstream/internal/units"
)

// ParseArrivalTrace reads a CSV arrival log — one load epoch per line,
// `timestamp,rate,duration` (seconds, sessions per second, seconds) —
// and expands it into the arrivals' start slots, replaying the recorded
// load shape at slot granularity tau. Each epoch contributes
// floor(rate·duration) arrivals evenly spaced from its timestamp, so a
// row like `60,2,30` is sixty sessions arriving twice a second starting
// at the one-minute mark. Blank lines and lines starting with '#' are
// skipped, as is an optional non-numeric header row; epochs may appear
// out of order and overlap — arrivals are sorted by slot before they are
// returned.
func ParseArrivalTrace(r io.Reader, tau units.Seconds) ([]int, error) {
	if tau <= 0 {
		return nil, fmt.Errorf("workload: non-positive slot length %v for arrival trace", tau)
	}
	var slots []int
	sc := bufio.NewScanner(r)
	line, parsed := 0, 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" || strings.HasPrefix(raw, "#") {
			continue
		}
		fields := strings.Split(raw, ",")
		if len(fields) != 3 {
			return nil, fmt.Errorf("workload: arrival trace line %d: want timestamp,rate,duration, got %q", line, raw)
		}
		ts, errT := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
		rate, errR := strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
		dur, errD := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
		if errT != nil || errR != nil || errD != nil {
			// Tolerate one leading header row (`timestamp,rate,duration`).
			if parsed == 0 && errT != nil {
				continue
			}
			return nil, fmt.Errorf("workload: arrival trace line %d: non-numeric field in %q", line, raw)
		}
		if ts < 0 || rate < 0 || dur < 0 {
			return nil, fmt.Errorf("workload: arrival trace line %d: negative value in %q", line, raw)
		}
		parsed++
		// The epsilon keeps exact products like 2.0×30.0 from flooring
		// down on representation error.
		n := int(rate*dur + 1e-9)
		for k := 0; k < n; k++ {
			t := ts + float64(k)/rate
			slots = append(slots, int(t/float64(tau)))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading arrival trace: %w", err)
	}
	if len(slots) == 0 {
		return nil, fmt.Errorf("workload: arrival trace yields no arrivals")
	}
	sort.Ints(slots)
	return slots, nil
}
