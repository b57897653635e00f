package playback

import "jointstream/internal/units"

// Constructors and accessors only the package's tests reach.

// New creates the buffer for a video of the given size and total playback
// duration; see Init.
func New(size units.KB, duration units.Seconds) (*Buffer, error) {
	b := new(Buffer)
	if err := b.Init(size, duration); err != nil {
		return nil, err
	}
	return b, nil
}

// NewSeconds creates the buffer for an adaptive-bitrate session; see
// InitSeconds.
func NewSeconds(duration units.Seconds) (*Buffer, error) {
	b := new(Buffer)
	if err := b.InitSeconds(duration); err != nil {
		return nil, err
	}
	return b, nil
}

// SecondsMode reports whether this is an adaptive (content-time) session.
func (b *Buffer) SecondsMode() bool { return b.secondsMode }

// DeliveredSeconds returns the playback seconds received so far.
func (b *Buffer) DeliveredSeconds() units.Seconds { return b.deliveredSec }

// VideoSize returns the total size of the video in KB.
func (b *Buffer) VideoSize() units.KB { return b.videoSize }

// Duration returns the total playback time M_i.
func (b *Buffer) Duration() units.Seconds { return b.duration }

// Elapsed returns m_i(n), the seconds of video already played out.
func (b *Buffer) Elapsed() units.Seconds { return b.elapsed }

// Delivered returns the bytes received so far.
func (b *Buffer) Delivered() units.KB { return b.delivered }

// TotalRebuffer returns the accumulated rebuffering time Σ_n c_i(n).
func (b *Buffer) TotalRebuffer() units.Seconds { return b.rebuffer }

// Slots returns how many slots this buffer has been advanced.
func (b *Buffer) Slots() int { return b.slots }
