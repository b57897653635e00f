package playback

import (
	"fmt"
	"math"
	"testing"

	"jointstream/internal/units"
)

// oracleBuffer carries the Eq. (7)/(8) code as it stood before Advance
// returned its completion flags: Advance, PlaybackComplete and
// DeliveryComplete copied verbatim. FuzzBufferAdvance holds the one
// Advance to it.
type oracleBuffer Buffer

func (b *oracleBuffer) DeliveryComplete() bool {
	if b.secondsMode {
		return b.deliveredSec >= b.duration-b.tol
	}
	return b.delivered >= b.videoSize
}

func (b *oracleBuffer) PlaybackComplete() bool {
	if b.elapsed >= b.duration-b.tol {
		return true
	}
	return b.DeliveryComplete() && b.occupancy == 0 && b.pending == 0 && b.slots > 0
}

func (b *oracleBuffer) Advance(delivered units.KB, rate units.KBps, tau units.Seconds) (units.Seconds, error) {
	if delivered < 0 {
		return 0, fmt.Errorf("playback: negative delivery %v", delivered)
	}
	if tau <= 0 {
		return 0, fmt.Errorf("playback: non-positive slot length %v", tau)
	}
	if delivered > 0 && rate <= 0 {
		return 0, fmt.Errorf("playback: delivery with non-positive rate %v", rate)
	}

	elapsedDone := b.elapsed >= b.duration-b.tol
	delivDone := b.DeliveryComplete()
	complete := elapsedDone || (delivDone && b.occupancy == 0 && b.pending == 0 && b.slots > 0)

	drain := tau
	if complete {
		drain = 0
	}
	b.occupancy = maxSec(b.occupancy-drain, 0) + b.pending

	var c units.Seconds
	if !complete && !(delivDone && b.occupancy == 0 && b.pending == 0 && b.slots > 0) {
		c = maxSec(tau-b.occupancy, 0)
		played := tau - c
		remaining := b.duration - b.elapsed
		if played > remaining {
			played = remaining
		}
		b.elapsed += played
		b.rebuffer += c
	}

	b.delivered += delivered
	if delivered > 0 {
		b.pending = units.Seconds(float64(delivered) / float64(rate))
		b.deliveredSec += b.pending
	} else {
		b.pending = 0
	}
	b.slots++
	return c, nil
}

// sameState reports whether two buffers hold the same state, every float
// compared by its bits.
func sameState(a *Buffer, b *oracleBuffer) bool {
	fa := []float64{float64(a.videoSize), float64(a.duration), float64(a.occupancy), float64(a.elapsed),
		float64(a.delivered), float64(a.deliveredSec), float64(a.pending), float64(a.rebuffer), float64(a.tol)}
	fb := []float64{float64(b.videoSize), float64(b.duration), float64(b.occupancy), float64(b.elapsed),
		float64(b.delivered), float64(b.deliveredSec), float64(b.pending), float64(b.rebuffer), float64(b.tol)}
	for k := range fa {
		if math.Float64bits(fa[k]) != math.Float64bits(fb[k]) {
			return false
		}
	}
	return a.slots == b.slots && a.secondsMode == b.secondsMode
}

// FuzzBufferAdvance drives the one Advance and the oracle with the same
// slots, in byte and seconds mode: every slot's rebuffering, error, the
// three returned completion flags against the oracle's PlaybackComplete
// before and after and DeliveryComplete after, and the whole buffer state,
// all bit for bit. Each script byte pair is one slot: the first picks the
// delivery (zero, negative, NaN, the exact remainder, a sliver past it, or
// a fraction of the video), the second the rate (zero at times) and, rarely,
// a zero slot length.
func FuzzBufferAdvance(f *testing.F) {
	// Elapsed playback lands within tol of the duration (3 s of content,
	// duration 3 s + 0.1 µs, tol 1 µs).
	f.Add(false, 300.0, 3.0000001, 1.0, []byte{3, 100, 0, 100, 0, 100, 0, 100, 0, 100, 0, 100})
	f.Add(true, 0.0, 3.0000001, 1.0, []byte{3, 100, 0, 100, 0, 100, 0, 100, 0, 100})
	// A delivery at rate 0 (an error), then at rate 0 with nothing
	// delivered (valid), then a negative delivery and a zero-length slot.
	f.Add(false, 1000.0, 10.0, 1.0, []byte{2, 0, 0, 0, 1, 50, 40, 252, 3, 100})
	f.Add(true, 0.0, 10.0, 0.5, []byte{40, 0, 2, 30, 1, 80, 0, 0, 3, 200, 0, 50})
	// Over-delivery, a sliver past the remainder, tail of idle slots.
	f.Add(false, 250.0, 2.5, 1.0, []byte{4, 90, 255, 100, 0, 100, 0, 100, 0, 100, 0, 100, 0, 100})
	f.Add(false, 1e-9, 1e-8, 1e-3, []byte{3, 1, 0, 1, 4, 1, 0, 1})
	// A NaN delivery after delivery completed.
	f.Add(false, 100.0, 1.0, 1.0, []byte{3, 100, 5, 100, 0, 100})
	f.Fuzz(func(t *testing.T, seconds bool, size, duration, tau float64, script []byte) {
		var b Buffer
		var err error
		if seconds {
			err = b.InitSeconds(units.Seconds(duration))
		} else {
			err = b.Init(units.KB(size), units.Seconds(duration))
		}
		if err != nil {
			return
		}
		o := oracleBuffer(b)
		for k := 0; k+1 < len(script); k += 2 {
			kind, rb := script[k], script[k+1]
			var d units.KB
			switch kind % 8 {
			case 0:
				d = 0
			case 1:
				d = -units.KB(kind)
			case 2:
				d = units.KB(float64(kind) * size / 256)
			case 5:
				d = units.KB(math.NaN())
			case 3:
				d = b.RemainingBytes()
				if seconds {
					d = units.KB(float64(b.RemainingSeconds()) * float64(rb))
				}
			case 4:
				d = units.KB(math.Nextafter(float64(b.RemainingBytes()), math.Inf(1)))
			default:
				d = units.KB(float64(kind) * float64(rb) / 64)
			}
			rate := units.KBps(rb)
			slot := units.Seconds(tau)
			if rb == 252 {
				slot = 0
			}

			wasComplete := o.PlaybackComplete()
			wantC, wantErr := o.Advance(d, rate, slot)
			st, gotErr := b.Advance(d, rate, slot)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("slot %d: error %v, oracle %v", k/2, gotErr, wantErr)
			}
			if gotErr != nil {
				if st != (Step{}) {
					t.Fatalf("slot %d: failed Advance returned %+v", k/2, st)
				}
			} else {
				want := Step{Rebuffer: wantC, WasComplete: wasComplete, Complete: o.PlaybackComplete(), Delivered: o.DeliveryComplete()}
				if math.Float64bits(float64(st.Rebuffer)) != math.Float64bits(float64(want.Rebuffer)) ||
					st.WasComplete != want.WasComplete || st.Complete != want.Complete || st.Delivered != want.Delivered {
					t.Fatalf("slot %d: Advance(%v, %v, %v) = %+v, oracle %+v", k/2, d, rate, slot, st, want)
				}
			}
			if !sameState(&b, &o) {
				t.Fatalf("slot %d: state %+v, oracle %+v", k/2, b, Buffer(o))
			}
		}
	})
}
