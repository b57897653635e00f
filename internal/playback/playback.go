// Package playback models the client-side playout buffer of one streaming
// user: remaining occupancy (paper Eq. 7), per-slot rebuffering time
// (Eq. 8) and session completion.
//
// The paper's convention (Definition 1) is that a data shard allocated in
// slot n becomes playable only from slot n+1, which is why the occupancy
// recursion uses the *previous* slot's delivery:
//
//	r(n) = max{r(n−1) − τ, 0} + t(n−1),  t(n) = d(n)/p(n),  r(0) = 0
//	c(n) = max{τ − r(n), 0}  while elapsed playback m(n) < total M
//
// Buffer keeps both the occupancy in playback-seconds and the raw byte
// accounting (delivered vs. video size), so schedulers can cap allocations
// at the remaining video size and the simulator can detect completion.
package playback

import (
	"fmt"

	"jointstream/internal/units"
)

// Buffer is the playout state of a single user. Initialize it with Init
// (or InitSeconds) and advance it once per slot with Advance.
type Buffer struct {
	videoSize units.KB      // total bytes of the video (byte mode)
	duration  units.Seconds // total playback time M_i

	occupancy    units.Seconds // r_i(n): playable seconds buffered
	elapsed      units.Seconds // m_i(n): seconds of video already played
	delivered    units.KB      // bytes received so far
	deliveredSec units.Seconds // playback seconds received so far (Σ d/p)
	pending      units.Seconds // t_i(n−1): playback time of the shard delivered last slot

	rebuffer units.Seconds // accumulated rebuffering time Σ c_i
	slots    int           // slots advanced so far

	// secondsMode marks an adaptive-bitrate session: the video is a fixed
	// amount of *content time* whose byte size depends on the rates the
	// player selects, so delivery completes when the delivered playback
	// seconds cover the duration rather than when a byte count is reached.
	secondsMode bool

	// tol caches completionTolerance(duration) — a pure function of the
	// duration — so the per-slot completion checks compare against a
	// stored value instead of recomputing it.
	tol units.Seconds
}

// Init resets b in place to a fresh buffer for a video of the given size
// and total playback duration, without allocating. Duration is the paper's
// M_i; for a constant-bit-rate session it equals size divided by the
// encoding rate.
func (b *Buffer) Init(size units.KB, duration units.Seconds) error {
	if size <= 0 {
		return fmt.Errorf("playback: non-positive video size %v", size)
	}
	if duration <= 0 {
		return fmt.Errorf("playback: non-positive duration %v", duration)
	}
	*b = Buffer{videoSize: size, duration: duration, tol: completionTolerance(duration)}
	return nil
}

// InitSeconds resets b in place to a fresh adaptive-bitrate buffer: a
// fixed content duration whose byte size follows the rates chosen at
// delivery time. DeliveryComplete flips once the delivered playback
// seconds cover the duration.
func (b *Buffer) InitSeconds(duration units.Seconds) error {
	if duration <= 0 {
		return fmt.Errorf("playback: non-positive duration %v", duration)
	}
	*b = Buffer{duration: duration, secondsMode: true, tol: completionTolerance(duration)}
	return nil
}

// RemainingSeconds returns the content time still to be delivered
// (seconds mode; zero once delivery is complete).
func (b *Buffer) RemainingSeconds() units.Seconds {
	rem := b.duration - b.deliveredSec
	if rem < 0 {
		return 0
	}
	return rem
}

// Occupancy returns r_i(n), the playable seconds currently buffered.
func (b *Buffer) Occupancy() units.Seconds { return b.occupancy }

// RemainingBytes returns the bytes still to be delivered.
func (b *Buffer) RemainingBytes() units.KB {
	rem := b.videoSize - b.delivered
	if rem < 0 {
		return 0
	}
	return rem
}

// DeliveryComplete reports whether the full video has been delivered:
// all bytes in byte mode, all content seconds in seconds mode.
func (b *Buffer) DeliveryComplete() bool {
	if b.secondsMode {
		return b.deliveredSec >= b.duration-b.tol
	}
	return b.delivered >= b.videoSize
}

// PlaybackComplete reports whether the user has watched the whole video
// (m_i ≥ M_i), after which rebuffering no longer accrues (Eq. 8).
//
// Completion is declared in two ways. First, elapsed playback reaching the
// duration up to a floating-point tolerance: the duration is reconstructed
// slot-by-slot as Σ d_i(n)/p_i(n), and demanding exact equality would let
// accumulated rounding error strand a finished user in a permanent
// one-slot-short rebuffering loop. Second, a fully delivered video whose
// buffer has drained is complete by definition — no further playback
// seconds can ever arrive — which also covers variable-bit-rate sessions
// whose realized Σ d/p differs slightly from the nominal duration.
func (b *Buffer) PlaybackComplete() bool {
	if b.elapsed >= b.duration-b.tol {
		return true
	}
	return b.DeliveryComplete() && b.occupancy == 0 && b.pending == 0 && b.slots > 0
}

// completionTolerance returns the absolute slack used to compare elapsed
// playback against the duration: one part in 10^9, floored at 1 µs.
func completionTolerance(d units.Seconds) units.Seconds {
	tol := d * 1e-9
	if tol < 1e-6 {
		tol = 1e-6
	}
	return tol
}

// Step is one slot's outcome of Advance: the rebuffering time c_i(n) and
// the completion predicates on either side of it.
type Step struct {
	Rebuffer    units.Seconds // c_i(n)
	WasComplete bool          // PlaybackComplete before the slot
	Complete    bool          // PlaybackComplete after it
	Delivered   bool          // DeliveryComplete after it
}

// Advance moves the buffer through one slot of length tau during which
// `delivered` bytes arrived for a video encoded at `rate` (p_i(n), the
// required data rate in this slot). It returns the rebuffering time c_i(n)
// incurred in this slot with the completion state around it; on an error
// the buffer is unchanged and the Step is zero.
//
// Following the paper's shard semantics, the data delivered in this slot
// becomes playable at the next Advance call; the occupancy consumed by this
// slot's playback is whatever was buffered at the slot boundary.
func (b *Buffer) Advance(delivered units.KB, rate units.KBps, tau units.Seconds) (Step, error) {
	if delivered < 0 {
		return Step{}, fmt.Errorf("playback: negative delivery %v", delivered)
	}
	if tau <= 0 {
		return Step{}, fmt.Errorf("playback: non-positive slot length %v", tau)
	}
	if delivered > 0 && rate <= 0 {
		return Step{}, fmt.Errorf("playback: delivery with non-positive rate %v", rate)
	}

	// The two completion checks below (drain gate, rebuffer gate) share
	// their inputs — elapsed, delivery and the pre-update slot count — so
	// the predicates are evaluated once instead of re-deriving
	// PlaybackComplete from scratch on both sides of the occupancy update.
	elapsedDone := b.elapsed >= b.duration-b.tol
	delivDone := b.DeliveryComplete()
	complete := elapsedDone || (delivDone && b.occupancy == 0 && b.pending == 0 && b.slots > 0)

	// Eq. (7): fold in the shard delivered in the previous slot, then age
	// the buffer by one slot of playback (a finished session no longer
	// drains).
	drain := tau
	if complete {
		drain = 0
	}
	b.occupancy = maxSec(b.occupancy-drain, 0) + b.pending

	// Eq. (8): rebuffering accrues only while the video is still playing —
	// the completion predicate is re-checked against the updated occupancy
	// (elapsed and delivery cannot have changed yet).
	var c units.Seconds
	if !complete && !(delivDone && b.occupancy == 0 && b.pending == 0 && b.slots > 0) {
		c = maxSec(tau-b.occupancy, 0)
		// Playback progresses by however much of the slot had data.
		played := tau - c
		remaining := b.duration - b.elapsed
		if played > remaining {
			played = remaining
		}
		b.elapsed += played
		b.rebuffer += c
	}

	// Record this slot's delivery; playable from the next slot (t_i(n)).
	b.delivered += delivered
	if delivered > 0 {
		b.pending = units.Seconds(float64(delivered) / float64(rate))
		b.deliveredSec += b.pending
	} else {
		b.pending = 0
	}
	b.slots++
	// PlaybackComplete and DeliveryComplete on the updated state (slots > 0
	// now holds); delivery moves only when something was delivered.
	st := Step{Rebuffer: c, WasComplete: complete, Delivered: delivDone}
	if delivered != 0 {
		st.Delivered = b.DeliveryComplete()
	}
	st.Complete = b.elapsed >= b.duration-b.tol || (st.Delivered && b.occupancy == 0 && b.pending == 0)
	return st, nil
}

func maxSec(a, b units.Seconds) units.Seconds {
	if a > b {
		return a
	}
	return b
}
