package playback

import (
	"math"
	"testing"
	"testing/quick"

	"jointstream/internal/units"
)

func mustNew(t *testing.T, size units.KB, dur units.Seconds) *Buffer {
	t.Helper()
	b, err := New(size, dur)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 10); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := New(100, 0); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := New(-5, 10); err == nil {
		t.Error("negative size accepted")
	}
}

func TestInitialState(t *testing.T) {
	b := mustNew(t, 1000, 10)
	if b.Occupancy() != 0 || b.Elapsed() != 0 || b.Delivered() != 0 {
		t.Error("fresh buffer not empty")
	}
	if b.DeliveryComplete() || b.PlaybackComplete() {
		t.Error("fresh buffer reports completion")
	}
	if b.RemainingBytes() != 1000 {
		t.Errorf("RemainingBytes = %v, want 1000", b.RemainingBytes())
	}
}

// First slot always rebuffers: r(0)=0, shards become playable next slot.
func TestFirstSlotRebuffers(t *testing.T) {
	b := mustNew(t, 1000, 10)
	st, err := b.Advance(100, 100, 1)
	c := st.Rebuffer
	if err != nil {
		t.Fatal(err)
	}
	if c != 1 {
		t.Errorf("first-slot rebuffer = %v, want full slot 1s", c)
	}
}

// A shard delivered in slot n is playable in slot n+1 (Definition 1).
func TestShardPlayableNextSlot(t *testing.T) {
	b := mustNew(t, 1000, 10)
	b.Advance(200, 100, 1) // delivers 2s of playback, playable next slot
	st, _ := b.Advance(0, 100, 1)
	c := st.Rebuffer
	if c != 0 {
		t.Errorf("slot 1 rebuffer = %v, want 0 (2s buffered)", c)
	}
	if got := b.Elapsed(); got != 1 {
		t.Errorf("elapsed = %v, want 1", got)
	}
}

// Occupancy recursion Eq. (7): r(n) = max(r(n-1) - tau, 0) + t(n-1).
func TestOccupancyRecursion(t *testing.T) {
	b := mustNew(t, 10000, 100)
	// Slot 0: deliver 300KB at 100KB/s => t(0) = 3s.
	b.Advance(300, 100, 1)
	// Slot 1 start: r = max(0-1,0) + 3 = 3.
	b.Advance(0, 100, 1)
	if got := b.Occupancy(); got != 3 {
		t.Errorf("r(1) = %v, want 3", got)
	}
	// Slot 2 start: r = max(3-1,0) + 0 = 2.
	b.Advance(0, 100, 1)
	if got := b.Occupancy(); got != 2 {
		t.Errorf("r(2) = %v, want 2", got)
	}
	// Slot 3: r = 1. Slot 4: r = 0 and rebuffering resumes.
	b.Advance(0, 100, 1)
	st, _ := b.Advance(0, 100, 1)
	c := st.Rebuffer
	if got := b.Occupancy(); got != 0 {
		t.Errorf("r(4) = %v, want 0", got)
	}
	if c != 1 {
		t.Errorf("c(4) = %v, want 1", c)
	}
}

// Rebuffering Eq. (8): partial occupancy yields partial rebuffering.
func TestPartialSlotRebuffer(t *testing.T) {
	b := mustNew(t, 10000, 100)
	b.Advance(50, 100, 1) // t(0) = 0.5s
	st, _ := b.Advance(0, 100, 1)
	c := st.Rebuffer
	if math.Abs(float64(c)-0.5) > 1e-9 {
		t.Errorf("c = %v, want 0.5", c)
	}
	if math.Abs(float64(b.Elapsed())-0.5) > 1e-9 {
		t.Errorf("elapsed = %v, want 0.5", b.Elapsed())
	}
}

func TestSteadyStreamNoRebufferAfterStartup(t *testing.T) {
	b := mustNew(t, 100000, 1000)
	// Deliver exactly one slot of playback every slot.
	var total units.Seconds
	for i := 0; i < 100; i++ {
		st, err := b.Advance(100, 100, 1)
		c := st.Rebuffer
		if err != nil {
			t.Fatal(err)
		}
		total += c
	}
	// Only the very first slot rebuffers.
	if total != 1 {
		t.Errorf("total rebuffer = %v, want 1 (startup only)", total)
	}
	if b.TotalRebuffer() != total {
		t.Errorf("TotalRebuffer = %v, want %v", b.TotalRebuffer(), total)
	}
}

func TestDeliveryCompletion(t *testing.T) {
	b := mustNew(t, 250, 10)
	b.Advance(100, 100, 1)
	if b.DeliveryComplete() {
		t.Error("complete too early")
	}
	b.Advance(150, 100, 1)
	if !b.DeliveryComplete() {
		t.Error("not complete after full delivery")
	}
	if b.RemainingBytes() != 0 {
		t.Errorf("RemainingBytes = %v, want 0", b.RemainingBytes())
	}
}

func TestRemainingBytesNeverNegative(t *testing.T) {
	b := mustNew(t, 100, 10)
	b.Advance(500, 100, 1) // overdeliver
	if b.RemainingBytes() != 0 {
		t.Errorf("RemainingBytes = %v, want 0", b.RemainingBytes())
	}
}

func TestPlaybackCompletionStopsRebuffering(t *testing.T) {
	// 2-second video delivered fully in slot 0.
	b := mustNew(t, 200, 2)
	b.Advance(200, 100, 1) // c=1 (startup)
	b.Advance(0, 100, 1)   // plays 1s
	b.Advance(0, 100, 1)   // plays 2nd second; playback complete
	if !b.PlaybackComplete() {
		t.Fatalf("playback not complete: elapsed=%v", b.Elapsed())
	}
	before := b.TotalRebuffer()
	for i := 0; i < 10; i++ {
		st, _ := b.Advance(0, 100, 1)
		c := st.Rebuffer
		if c != 0 {
			t.Errorf("post-completion rebuffer %v", c)
		}
	}
	if b.TotalRebuffer() != before {
		t.Error("rebuffer accrued after completion")
	}
}

func TestElapsedNeverExceedsDuration(t *testing.T) {
	b := mustNew(t, 1000, 3.5)
	for i := 0; i < 20; i++ {
		b.Advance(100, 100, 1)
	}
	if b.Elapsed() > 3.5 {
		t.Errorf("elapsed %v exceeds duration 3.5", b.Elapsed())
	}
	if !b.PlaybackComplete() {
		t.Error("should be complete")
	}
}

func TestAdvanceValidation(t *testing.T) {
	b := mustNew(t, 1000, 10)
	if _, err := b.Advance(-1, 100, 1); err == nil {
		t.Error("negative delivery accepted")
	}
	if _, err := b.Advance(100, 0, 1); err == nil {
		t.Error("delivery with zero rate accepted")
	}
	if _, err := b.Advance(100, 100, 0); err == nil {
		t.Error("zero tau accepted")
	}
	// Zero delivery with zero rate is fine (no division needed).
	if _, err := b.Advance(0, 0, 1); err != nil {
		t.Errorf("zero delivery rejected: %v", err)
	}
}

func TestSlotsCounter(t *testing.T) {
	b := mustNew(t, 1000, 10)
	for i := 0; i < 7; i++ {
		b.Advance(10, 100, 1)
	}
	if b.Slots() != 7 {
		t.Errorf("Slots = %d, want 7", b.Slots())
	}
}

func TestAccessors(t *testing.T) {
	b := mustNew(t, 350000, 800)
	if b.VideoSize() != 350000 {
		t.Errorf("VideoSize = %v", b.VideoSize())
	}
	if b.Duration() != 800 {
		t.Errorf("Duration = %v", b.Duration())
	}
}

// Property: total rebuffer + elapsed playback == slots * tau while the
// session is still incomplete (every pre-completion slot is either
// playback or stall). This is the identity behind the paper's Eq. (15).
func TestSlotAccountingIdentityProperty(t *testing.T) {
	f := func(seed uint64, deliveries []uint16) bool {
		if len(deliveries) == 0 {
			return true
		}
		b, err := New(1e9, 1e9) // effectively never completes
		if err != nil {
			return false
		}
		for _, d := range deliveries {
			if _, err := b.Advance(units.KB(d), 400, 1); err != nil {
				return false
			}
		}
		got := float64(b.TotalRebuffer() + b.Elapsed())
		want := float64(b.Slots())
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: rebuffering per slot is within [0, tau].
func TestRebufferBoundedProperty(t *testing.T) {
	f := func(deliveries []uint16) bool {
		b, err := New(1e9, 1e9)
		if err != nil {
			return false
		}
		for _, d := range deliveries {
			st, err := b.Advance(units.KB(d), 400, 1)
			c := st.Rebuffer
			if err != nil || c < 0 || c > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: delivered bytes equal the sum of per-slot deliveries.
func TestDeliveredConservationProperty(t *testing.T) {
	f := func(deliveries []uint16) bool {
		b, err := New(1e9, 1e9)
		if err != nil {
			return false
		}
		var sum units.KB
		for _, d := range deliveries {
			b.Advance(units.KB(d), 400, 1)
			sum += units.KB(d)
		}
		return b.Delivered() == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: occupancy is always non-negative, and bounded by total
// delivered playback seconds.
func TestOccupancyBoundsProperty(t *testing.T) {
	f := func(deliveries []uint16) bool {
		b, err := New(1e9, 1e9)
		if err != nil {
			return false
		}
		var deliveredSec float64
		for _, d := range deliveries {
			b.Advance(units.KB(d), 400, 1)
			deliveredSec += float64(d) / 400
			if b.Occupancy() < 0 {
				return false
			}
			if float64(b.Occupancy()) > deliveredSec+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
