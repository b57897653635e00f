package workload

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"jointstream/internal/rng"
	"jointstream/internal/signal"
	"jointstream/internal/units"
)

func TestPaperDefaults(t *testing.T) {
	c := PaperDefaults(40)
	if c.Users != 40 {
		t.Errorf("Users = %d", c.Users)
	}
	if c.SizeMin != 250000 || c.SizeMax != 500000 {
		t.Errorf("size range = [%v,%v], want [250MB,500MB]", c.SizeMin, c.SizeMax)
	}
	if c.RateMin != 300 || c.RateMax != 600 {
		t.Errorf("rate range = [%v,%v], want [300,600]", c.RateMin, c.RateMax)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
}

func TestGenerateRanges(t *testing.T) {
	sessions, err := Generate(PaperDefaults(40), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 40 {
		t.Fatalf("got %d sessions", len(sessions))
	}
	for _, s := range sessions {
		if s.Size < 250000 || s.Size >= 500000 {
			t.Errorf("user %d size %v out of range", s.ID, s.Size)
		}
		if s.BaseRate < 300 || s.BaseRate >= 600 {
			t.Errorf("user %d rate %v out of range", s.ID, s.BaseRate)
		}
		if s.StartSlot != 0 {
			t.Errorf("user %d starts at %d, want 0", s.ID, s.StartSlot)
		}
		if s.Signal == nil {
			t.Errorf("user %d missing signal trace", s.ID)
		}
	}
}

func TestGenerateIDsSequential(t *testing.T) {
	sessions, _ := Generate(PaperDefaults(10), rng.New(2))
	for i, s := range sessions {
		if s.ID != i {
			t.Errorf("session %d has ID %d", i, s.ID)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(PaperDefaults(10), rng.New(42))
	b, _ := Generate(PaperDefaults(10), rng.New(42))
	for i := range a {
		if a[i].Size != b[i].Size || a[i].BaseRate != b[i].BaseRate {
			t.Fatalf("same-seed workloads differ at user %d", i)
		}
		for n := 0; n < 50; n++ {
			if a[i].Signal.At(n) != b[i].Signal.At(n) {
				t.Fatalf("same-seed signal traces differ at user %d slot %d", i, n)
			}
		}
	}
}

func TestGenerateUsersDiffer(t *testing.T) {
	sessions, _ := Generate(PaperDefaults(10), rng.New(42))
	// Phase shifts must decorrelate users' signals.
	diff := 0
	for n := 0; n < 20; n++ {
		if sessions[0].Signal.At(n) != sessions[5].Signal.At(n) {
			diff++
		}
	}
	if diff < 15 {
		t.Errorf("users 0 and 5 signals nearly identical (%d/20 differ)", diff)
	}
}

func TestDuration(t *testing.T) {
	s := &Session{Size: 350000, BaseRate: 500}
	if got := s.Duration(); got != 700 {
		t.Errorf("Duration = %v, want 700", got)
	}
}

func TestConstantRateSession(t *testing.T) {
	s := &Session{BaseRate: 450}
	for n := 0; n < 10; n++ {
		if s.RateAt(n) != 450 {
			t.Errorf("RateAt(%d) = %v, want 450", n, s.RateAt(n))
		}
	}
}

func TestVBRSessions(t *testing.T) {
	cfg := PaperDefaults(5)
	cfg.RateJitterFrac = 0.2
	sessions, err := Generate(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	s := sessions[0]
	varies := false
	for n := 0; n < 50; n++ {
		r := s.RateAt(n)
		lo := float64(s.BaseRate) * 0.8
		hi := float64(s.BaseRate) * 1.2
		if float64(r) < lo-1e-9 || float64(r) > hi+1e-9 {
			t.Errorf("RateAt(%d) = %v outside [%v,%v]", n, r, lo, hi)
		}
		if r != s.BaseRate {
			varies = true
		}
		// Repeatable.
		if s.RateAt(n) != r {
			t.Errorf("RateAt(%d) not repeatable", n)
		}
	}
	if !varies {
		t.Error("VBR session never varied")
	}
}

func TestStaggeredArrivals(t *testing.T) {
	cfg := PaperDefaults(20)
	cfg.MeanInterarrival = 5
	sessions, err := Generate(cfg, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if sessions[0].StartSlot != 0 {
		t.Errorf("first user starts at %d, want 0", sessions[0].StartSlot)
	}
	prev := -1
	increased := false
	for _, s := range sessions {
		if s.StartSlot < prev {
			t.Errorf("start slots not non-decreasing: %d after %d", s.StartSlot, prev)
		}
		if s.StartSlot > 0 {
			increased = true
		}
		prev = s.StartSlot
	}
	if !increased {
		t.Error("no staggering with positive interarrival")
	}
}

func TestWithAvgSize(t *testing.T) {
	c := PaperDefaults(10).WithAvgSize(300 * units.Megabyte)
	mid := (float64(c.SizeMin) + float64(c.SizeMax)) / 2
	if math.Abs(mid-300000) > 1e-6 {
		t.Errorf("midpoint = %v, want 300000", mid)
	}
	if c.SizeMin >= c.SizeMax {
		t.Error("degenerate range")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("WithAvgSize invalid: %v", err)
	}
}

func TestValidate(t *testing.T) {
	base := PaperDefaults(10)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero users", func(c *Config) { c.Users = 0 }},
		{"zero size", func(c *Config) { c.SizeMin = 0 }},
		{"inverted size", func(c *Config) { c.SizeMax = c.SizeMin - 1 }},
		{"zero rate", func(c *Config) { c.RateMin = 0 }},
		{"inverted rate", func(c *Config) { c.RateMax = c.RateMin - 1 }},
		{"bad jitter", func(c *Config) { c.RateJitterFrac = 1.5 }},
		{"negative jitter", func(c *Config) { c.RateJitterFrac = -0.1 }},
		{"negative interarrival", func(c *Config) { c.MeanInterarrival = -1 }},
	}
	for _, c := range cases {
		cfg := base
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if _, err := Generate(cfg, rng.New(1)); err == nil {
			t.Errorf("%s: Generate accepted", c.name)
		}
	}
}

func TestGenerateMeanStatistics(t *testing.T) {
	// Averages over many users should approach range midpoints.
	cfg := PaperDefaults(2000)
	sessions, err := Generate(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	var sizeSum, rateSum float64
	for _, s := range sessions {
		sizeSum += float64(s.Size)
		rateSum += float64(s.BaseRate)
	}
	meanSize := sizeSum / float64(len(sessions))
	meanRate := rateSum / float64(len(sessions))
	if math.Abs(meanSize-375000) > 5000 {
		t.Errorf("mean size = %v, want ~375000", meanSize)
	}
	if math.Abs(meanRate-450) > 5 {
		t.Errorf("mean rate = %v, want ~450", meanRate)
	}
}

// Property: generation always respects configured ranges.
func TestGenerateRangesProperty(t *testing.T) {
	f := func(seed uint64, usersRaw uint8) bool {
		users := int(usersRaw%50) + 1
		cfg := PaperDefaults(users)
		sessions, err := Generate(cfg, rng.New(seed))
		if err != nil || len(sessions) != users {
			return false
		}
		for _, s := range sessions {
			if s.Size < cfg.SizeMin || s.Size >= cfg.SizeMax {
				return false
			}
			if s.BaseRate < cfg.RateMin || s.BaseRate >= cfg.RateMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// meetingTrace is a session's real trace whose Prewarm first waits to meet
// another Prewarm in flight: two goroutines inside PrewarmAll's fan-out at
// once. The first meeting closes met and releases every other call.
type meetingTrace struct {
	signal.Trace
	*meeting
}

type meeting struct {
	meet, met chan struct{}
	once      sync.Once
}

func (m meetingTrace) Prewarm(slots int) {
	select {
	case <-m.met:
	case m.meet <- struct{}{}:
		m.once.Do(func() { close(m.met) })
	case <-m.meet:
		m.once.Do(func() { close(m.met) })
	case <-time.After(time.Second):
	}
	m.Trace.(signal.Prewarmer).Prewarm(slots)
}

// TestPrewarmAllZeroWorkersUsesAllCores: workers = 0 is every core, not
// "inline" — given the default worker budget, GOMAXPROCS, of two or more,
// more than one goroutine prewarms — and what it produces is what one
// worker produces. Each session carries a memoizing random walk (the
// paper's sine has nothing to prewarm) and VBR rate draws.
func TestPrewarmAllZeroWorkersUsesAllCores(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2")
	}
	const users, slots = 16, 200
	cfg := PaperDefaults(users)
	cfg.RateJitterFrac = 0.2
	generate := func() []*Session {
		wl, err := Generate(cfg, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range wl {
			if s.Signal, err = signal.NewRandomWalk(signal.RandomWalkConfig{
				Bounds: signal.DefaultBounds, Start: -80, StepStd: 3,
			}, rng.New(uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		return wl
	}
	all, one := generate(), generate()
	m := &meeting{meet: make(chan struct{}), met: make(chan struct{})}
	for _, s := range all {
		s.Signal = meetingTrace{s.Signal, m}
	}
	PrewarmAll(0, all, slots)
	PrewarmAll(1, one, slots)
	select {
	case <-m.met:
	default:
		t.Error("PrewarmAll(0, …) never had two sessions prewarming at once")
	}
	for i := range all {
		for n := 0; n < slots; n++ {
			if all[i].Signal.At(n) != one[i].Signal.At(n) || all[i].RateAt(n) != one[i].RateAt(n) {
				t.Fatalf("user %d slot %d: all cores (%v, %v), one worker (%v, %v)", i, n,
					all[i].Signal.At(n), all[i].RateAt(n), one[i].Signal.At(n), one[i].RateAt(n))
			}
		}
	}
}
