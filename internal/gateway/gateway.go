// Package gateway implements the paper's Fig. 1 framework as a running
// pipeline: the four components — Data Receiver, Information Collector,
// Scheduler and Data Transmitter — wired around any sched.Scheduler.
//
// The gateway sits between origin content sources and per-user downlinks.
// Each slot it (1) ingests content from the sources into per-user queues
// (Data Receiver, with a video/non-video classifier standing in for the
// resource-slicing of CellSlice [26]), (2) snapshots every user's
// cross-layer report — RSSI and required bit-rate — (Information
// Collector, standing in for RRC signaling plus DPI middleboxes [2]),
// (3) runs the configured allocation algorithm (Scheduler), and
// (4) pushes the granted data units onto the user links (Data
// Transmitter).
//
// The pipeline is transport-agnostic: users are attached through the
// Endpoint interface. The package provides an in-memory LocalEndpoint for
// tests and examples; cmd/jstream-gateway wraps TCP connections in the
// same interface for a live demo.
package gateway

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"jointstream/internal/cell"
	"jointstream/internal/metrics"
	"jointstream/internal/radio"
	"jointstream/internal/rrc"
	"jointstream/internal/sched"
	"jointstream/internal/units"
)

// Report is one user's cross-layer state sampled by the Information
// Collector at a slot boundary.
type Report struct {
	// Sig is the device-reported RSSI.
	Sig units.DBm
	// Rate is the required video data rate extracted from the session
	// (the paper obtains it from DPI middleboxes).
	Rate units.KBps
}

// Endpoint is one attached user device.
type Endpoint interface {
	// Report returns the user's current cross-layer report. ok=false
	// marks a missing report; the gateway papers over up to
	// five consecutive misses (staleGraceSlots) with the last good report
	// (conservative admission) before detaching the user.
	Report() (r Report, ok bool)
	// Deliver pushes one slot's granted bytes to the device. Errors are
	// classified (see classify): fatal ones detach the user immediately,
	// transient ones route through the backoff/breaker retry path. p is
	// the gateway's own buffer, valid only until Deliver returns.
	Deliver(p []byte) error
}

// Source supplies downlink content for one user, emulating the stream
// from the origin server. Read semantics follow io.Reader; io.EOF marks
// the end of the video.
type Source interface {
	Read(p []byte) (int, error)
}

// Class labels a flow for the Data Receiver's resource slicing.
type Class int

// Flow classes: Video flows are scheduled by the framework; Other flows
// bypass the scheduler (the paper's framework only manages video traffic).
const (
	Video Class = iota
	Other
)

// Config parameterizes a Gateway.
type Config struct {
	// Tau is the slot length in seconds.
	Tau units.Seconds
	// Unit is the data-unit size δ (KB).
	Unit units.KB
	// Capacity is the base-station budget S (KB/s).
	Capacity units.KBps
	// Radio converts reported RSSI into link rate and energy price.
	Radio radio.Model
	// RRC, when non-zero (Pd > 0), enables device-energy accounting: the
	// gateway tracks each attached user's RRC tail and its transmission
	// (Eq. 3) and tail (Eq. 4) energy. Leave zero to skip.
	RRC rrc.Profile
	// QueueCap bounds each user's Data Receiver queue in KB (prefetched
	// from the source but not yet transmitted). Must exceed one slot's
	// worth of the fastest link.
	QueueCap units.KB
	// Policy tunes the degraded-mode behavior: stale-report grace,
	// transient-error backoff, the flap circuit breaker and asynchronous
	// per-endpoint delivery. The zero value selects the defaults (see
	// Policy).
	Policy Policy
	// MaxSessions caps concurrent in-service sessions: Attach rejects
	// further users with a typed *cell.OverCapacityError once the cap is
	// reached. 0 means unlimited.
	MaxSessions int
	// AdmitHeadroomFrac, when positive, enables the Eq.-1-style admission
	// check: a new session is rejected when the summed required rates of
	// every in-service session plus its own would exceed
	// AdmitHeadroomFrac × Capacity.
	AdmitHeadroomFrac float64
}

// validate checks the configuration.
func (c Config) validate() error {
	if c.Tau <= 0 {
		return fmt.Errorf("gateway: non-positive tau %v", c.Tau)
	}
	if c.Unit <= 0 {
		return fmt.Errorf("gateway: non-positive unit %v", c.Unit)
	}
	if c.Capacity <= 0 {
		return fmt.Errorf("gateway: non-positive capacity %v", c.Capacity)
	}
	if c.Radio.Throughput == nil || c.Radio.Power == nil {
		return fmt.Errorf("gateway: radio model not fully specified")
	}
	if c.QueueCap <= 0 {
		return fmt.Errorf("gateway: non-positive queue cap %v", c.QueueCap)
	}
	if c.MaxSessions < 0 {
		return fmt.Errorf("gateway: negative session cap %d", c.MaxSessions)
	}
	if c.AdmitHeadroomFrac < 0 {
		return fmt.Errorf("gateway: negative admission headroom %v", c.AdmitHeadroomFrac)
	}
	if err := c.Policy.validate(); err != nil {
		return err
	}
	return c.RRC.Validate()
}

// trackEnergy reports whether device-energy accounting is enabled.
func (c Config) trackEnergy() bool { return c.RRC.Pd > 0 }

// user is the gateway's per-session state.
type user struct {
	id  int
	ep  Endpoint // nil once retired
	src Source   // nil once retired
	// The Data Receiver queue is a ring: size bytes from buf[head],
	// wrapping at len(buf). buf is taken at the first fill and given back
	// at retirement; size stays for Stats.
	buf        []byte
	head, size int
	// snap is the async grant in flight, copied out of the ring; it is
	// reused once the delivery completes.
	snap     []byte
	srcDone  bool // source exhausted
	detached bool
	sentKB   units.KB
	// buffered playback estimate maintained from deliveries and wall
	// slots, used to populate the slot view's BufferSec column.
	bufferSec units.Seconds
	// rebufferSec accrues τ for every slot in which a started,
	// unfinished session's playback estimate sits at zero — the
	// gateway-side analogue of the simulator's c_i(n).
	rebufferSec units.Seconds
	// The RRC tail and the energy tallies move only when the gateway was
	// configured with an RRC profile.
	rrc.Tail
	transEnergy units.MJ
	tailEnergy  units.MJ

	// Degradation-policy state.
	lastReport   Report       // last good report, reused during the grace window
	haveReport   bool         // lastReport is valid
	staleSlots   int          // consecutive slots with a missing report
	failStreak   int          // consecutive transient strikes (errors or stalled slots)
	backoffUntil int          // slot before which the user is not scheduled
	detachReason DetachReason // why the user was detached, if it was
	inFlight     bool         // an async delivery is outstanding
	worker       *deliveryWorker
	// Per-user diagnostics mirrored into Stats.
	transientErrors int
	missedSlots     int
	// asOf is the slot a retired session's estimates stand at; see settle.
	asOf int
}

// queued is the number of bytes waiting in the receiver queue.
func (u *user) queued() int { return u.size }

// done reports natural completion: source drained, queue empty, nothing
// in flight.
func (u *user) done() bool { return u.srcDone && u.queued() == 0 && !u.inFlight }

// Stats summarizes one user's progress. The JSON tags are the monitoring
// API's /stats shape.
type Stats struct {
	ID        int           `json:"id"`
	SentKB    units.KB      `json:"sent_kb"`
	QueuedKB  units.KB      `json:"queued_kb"`
	BufferSec units.Seconds `json:"buffer_sec"`
	// RebufferSec is the accumulated playback stall estimate: τ per slot
	// a started, unfinished session spent with an empty playback buffer.
	RebufferSec units.Seconds `json:"rebuffer_sec"`
	Done        bool          `json:"done"` // source drained, queue empty, nothing in flight
	Detached    bool          `json:"detached"`
	// DetachReason explains a detachment (empty while attached).
	DetachReason DetachReason `json:"detach_reason"`
	// TransientErrors counts classified-transient delivery failures that
	// were retried rather than detaching the user.
	TransientErrors int `json:"transient_errors"`
	// MissedSlots counts slots in which the user's grant was skipped
	// because a previous delivery was still in flight.
	MissedSlots int `json:"missed_slots"`
	// TransEnergy and TailEnergy are populated when the gateway was
	// configured with an RRC profile (Config.RRC).
	TransEnergy units.MJ `json:"trans_energy_mj"`
	TailEnergy  units.MJ `json:"tail_energy_mj"`
}

// Energy returns the user's total accounted energy.
func (s Stats) Energy() units.MJ { return s.TransEnergy + s.TailEnergy }

// Gateway is the framework instance. Attach users, then call Step once
// per slot (or drive it from a time.Ticker).
type Gateway struct {
	mu    sync.Mutex
	cfg   Config
	sched sched.Scheduler
	// users is the ledger StatsFor reads, indexed by id and never shrunk.
	// The slot loop walks live instead: the sessions still in service
	// (plus detached ones whose last delivery is in flight), ascending id.
	users []*user
	live  []*user
	slot  int
	// The slot view handed to the scheduler has one row per live session,
	// row i for live[i], zeroed and refilled every slot. rows is the
	// scheduler's per-row state (nil if it keeps none), kept on the
	// sched.RowState contract: Attach resets the row it takes, and
	// retirement moves each remaining session's state down with it.
	view   sched.Slot
	cols   sched.Columns
	link   *radio.Link // v, P and the Eq. (1) limit of a reported signal
	rows   sched.RowState
	active []int
	alloc  []int
	// Receiver-queue rings of exactly QueueCap (capBytes) bytes; scratch
	// assembles a synchronous grant that wraps the end of its ring.
	capBytes int
	scratch  []byte
	freeBufs [][]byte
	bufsMade int
	closed   bool
	// policy is cfg.Policy with defaults resolved.
	policy Policy
	// diag aggregates the degradation counters across users.
	diag Diag
	// wake is the async delivery workers' completion bell (cap 1; a
	// dropped ring is harmless because the collector scans every user).
	wake chan struct{}
	// bypassKB counts non-video bytes forwarded without scheduling.
	bypassKB units.KB

	// Open-system serving state (see admission.go).
	admission     cell.Admission
	draining      bool
	tickHist      *metrics.WindowedHist     // sliding Step wall-duration (ms)
	tickHistSlots int                       // slots since the last rotation
	missRing      [shedMissWindowSlots]bool // the last deadline outcomes
	missHead      int
	missCount     int
	// quality is the sliding per-session quality window (metrics.go).
	quality *metrics.SessionWindow
}

// New builds a Gateway around the given scheduling algorithm.
func New(cfg Config, s sched.Scheduler) (*Gateway, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, errors.New("gateway: nil scheduler")
	}
	// The per-session quality window (metrics.go): 4 windows of 64
	// auto-widening bins, 0.25 s wide for rebuffering and 50 mJ for energy.
	quality, err := metrics.NewSessionWindow(4, 64, 0.25, 50)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:       cfg,
		sched:     s,
		policy:    cfg.Policy.withDefaults(),
		admission: cell.NewAdmission(cfg.MaxSessions, cfg.AdmitHeadroomFrac, cfg.Capacity),
		wake:      make(chan struct{}, 1),
		tickHist:  newTickHist(),
		quality:   quality,
		active:    []int{},
		capBytes:  int(float64(cfg.QueueCap) * 1000),
	}
	if g.link, err = radio.NewLink(cfg.Radio, cfg.Tau, cfg.Unit); err != nil {
		return nil, err
	}
	g.rows, _ = s.(sched.RowState)
	g.view = sched.Slot{
		Tau:           cfg.Tau,
		Unit:          cfg.Unit,
		CapacityUnits: int(float64(cfg.Capacity) * float64(cfg.Tau) / float64(cfg.Unit)),
		Cols:          &g.cols,
	}
	return g, nil
}

// Attach registers a user with its content source and downlink endpoint,
// returning the user id. Admission control applies: a draining gateway
// rejects with errDraining, and the session cap / capacity headroom
// checks (Config.MaxSessions, Config.AdmitHeadroomFrac) reject with a
// typed *cell.OverCapacityError matching cell.ErrOverCapacity.
func (g *Gateway) Attach(ep Endpoint, src Source) (int, error) {
	if ep == nil || src == nil {
		return 0, errors.New("gateway: nil endpoint or source")
	}
	// The headroom check wants the newcomer's required rate; a missing
	// report admits at rate 0 (the stale-report machinery takes over once
	// attached). The endpoint is only probed when the check is configured,
	// so endpoints with stateful Report implementations see no extra call
	// on a gateway without admission control.
	var rate units.KBps
	if g.admission.HeadroomKBps > 0 {
		if rep, ok := ep.Report(); ok {
			rate = rep.Rate
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.admissible(rate); err != nil {
		g.diag.Rejected++
		return 0, err
	}
	u := &user{id: len(g.users), ep: ep, src: src}
	g.users = append(g.users, u)
	g.live = append(g.live, u)
	if g.rows != nil {
		// The row may still hold the state of a session retired from it.
		g.rows.ResetRow(len(g.live) - 1)
	}
	g.diag.Admitted++
	return u.id, nil
}

// zeroView gives the slot view and the allocation one zeroed row per live
// session; a row left zero sits the slot out. Callers hold g.mu.
func (g *Gateway) zeroView() {
	c, n := &g.cols, len(g.live)
	c.Active = zeroed(c.Active, n)
	c.Sig = zeroed(c.Sig, n)
	c.LinkRate = zeroed(c.LinkRate, n)
	c.EnergyPerKB = zeroed(c.EnergyPerKB, n)
	c.Rate = zeroed(c.Rate, n)
	c.BufferSec = zeroed(c.BufferSec, n)
	c.RemainingKB = zeroed(c.RemainingKB, n)
	c.TailGap = zeroed(c.TailGap, n)
	c.NeverActive = zeroed(c.NeverActive, n)
	c.MaxUnits = zeroed(c.MaxUnits, n)
	g.alloc = zeroed(g.alloc, n)
}

// zeroed returns n zero elements, on s's array while that is large enough.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// Forward carries one non-video packet through the gateway unscheduled,
// emulating the resource-slicing split: only Video-class traffic goes
// through the Scheduler. It returns the class the packet was given.
func (g *Gateway) Forward(class Class, payload []byte, deliver func([]byte) error) (Class, error) {
	if class != Video {
		if err := deliver(payload); err != nil {
			return class, fmt.Errorf("gateway: bypass delivery: %w", err)
		}
		g.mu.Lock()
		g.bypassKB += units.KB(float64(len(payload)) / 1000)
		g.mu.Unlock()
		return Other, nil
	}
	return Video, errors.New("gateway: video traffic must flow through an attached Source")
}

// BypassedKB reports how much non-video traffic was forwarded unscheduled.
func (g *Gateway) BypassedKB() units.KB {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.bypassKB
}

// Slot returns the number of completed slots.
func (g *Gateway) Slot() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.slot
}

// Step advances the gateway by one slot: receive → collect → schedule →
// transmit. It returns the slot's allocations in data units, one per
// session the gateway was still serving when the slot began, in attach
// order; the slice is the gateway's own and is rewritten by the next
// Step.
//
// Only sessions in service are touched: a session that completed or was
// detached is retired at the end of the slot it ended in, loses its row
// and is never polled again; StatsFor keeps answering for it.
//
// Degraded modes (see Policy): users with a missing report ride the
// stale-report grace window under conservative admission; users backing
// off after a transient delivery error, and users whose async delivery is
// still in flight, sit the slot out; the circuit breaker detaches users
// whose strikes exhaust Policy.BreakerTrips.
func (g *Gateway) Step() ([]int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, errors.New("gateway: Step after Close")
	}
	tickStart := time.Now()
	missedDeadline := false

	// 0. Apply async delivery outcomes that landed since the last slot.
	if g.policy.AsyncDelivery {
		g.collectCompletions(-1)
	}

	// 1. Data Receiver: top up each user's queue from its source.
	for _, u := range g.live {
		g.fill(u)
	}

	// 2. Information Collector: one row per live session.
	g.zeroView()
	c, alloc := &g.cols, g.alloc
	active := g.active[:0]
	degraded := false
	for i, u := range g.live {
		if u.detached {
			continue
		}
		rep, ok := u.ep.Report()
		if ok {
			if u.staleSlots > 0 {
				// The report flapped back inside the grace window.
				g.diag.Reattaches++
				u.staleSlots = 0
			}
			u.lastReport, u.haveReport = rep, true
		} else {
			u.staleSlots++
			g.diag.StaleSlots++
			degraded = true
			if u.staleSlots > staleGraceSlots {
				g.diag.StaleDetaches++
				g.detach(u, detachStale)
				continue
			}
			if !u.haveReport {
				continue // nothing to reuse yet; sit the slot out
			}
			rep = u.lastReport
		}
		if u.inFlight {
			// Previous delivery still in flight past its deadline: the
			// user misses this slot's grant, and the stall strikes the
			// breaker.
			u.missedSlots++
			g.diag.MissedDeadlines++
			g.recordStrike(u)
			degraded = true
			continue
		}
		if g.slot < u.backoffUntil {
			degraded = true
			continue
		}
		queuedKB := units.KB(float64(u.queued()) / 1000)
		link, price, maxUnits := g.link.At(rep.Sig)
		queueUnits := int(float64(queuedKB) / float64(g.cfg.Unit))
		if u.srcDone {
			// The source is exhausted: round the tail up so a video that is
			// not an exact multiple of the allocation unit can still finish.
			// The transmitter clamps the grant to the actual queue bytes.
			queueUnits = ceilDiv(float64(queuedKB), float64(g.cfg.Unit))
		}
		if maxUnits > queueUnits {
			maxUnits = queueUnits
		}
		if u.staleSlots > 0 {
			// Conservative admission on a stale report: grant at most the
			// real-time need, no opportunistic prefetch on a link state we
			// can no longer observe.
			needUnits := ceilDiv(float64(rep.Rate)*float64(g.cfg.Tau), float64(g.cfg.Unit))
			if maxUnits > needUnits {
				maxUnits = needUnits
			}
		}
		if queuedKB > 0 {
			c.Active[i] = true
			active = append(active, i)
		}
		c.Sig[i] = rep.Sig
		c.LinkRate[i] = link
		c.EnergyPerKB[i] = price
		c.Rate[i] = rep.Rate
		c.BufferSec[i] = u.bufferSec
		c.RemainingKB[i] = queuedKB
		c.MaxUnits[i] = int32(maxUnits)
		if g.cfg.trackEnergy() {
			c.TailGap[i] = u.Tail.Gap
			c.NeverActive[i] = !u.Tail.EverActive
		}
	}
	g.active = active

	// 3. Scheduler, under the engine's Eq. (1)/(2) clamp.
	g.view.N, g.view.ActiveList = g.slot, active
	g.sched.Allocate(&g.view, alloc)
	g.view.Clamp(alloc)

	// 4. Data Transmitter.
	submitted := 0
	for i, u := range g.live {
		if alloc[i] == 0 || u.detached {
			g.idleSlot(u)
			continue
		}
		g.age(u)
		kb := float64(alloc[i]) * float64(g.cfg.Unit)
		nbytes := int(kb * 1000)
		if nbytes > u.queued() {
			nbytes = u.queued()
		}
		// The radio spends the grant's energy at transmission, in either
		// delivery mode and whether or not the device drains its socket:
		// Eq. (3) at the per-KB price this slot's view carries, and the
		// tail restarts. Playback is credited when the delivery lands.
		if g.cfg.trackEnergy() {
			u.transEnergy += units.MJ(float64(c.EnergyPerKB[i]) * (float64(nbytes) / 1000))
			u.Tail.Transfer()
		}
		if g.policy.AsyncDelivery {
			// Snapshot the grant and hand it to the endpoint's worker.
			g.submitAsync(u, deliveryJob{payload: u.takeSnap(nbytes), slot: g.slot, rate: c.Rate[i]})
			submitted++
			continue
		}
		if err := u.ep.Deliver(u.peek(nbytes, &g.scratch)); err != nil {
			g.deliveryFailed(u, err)
			continue
		}
		u.consume(nbytes)
		g.delivered(u, nbytes, c.Rate[i])
	}
	if submitted > 0 {
		if late := g.awaitSlotDeliveries(g.slot, submitted, g.policy.SlotDeadline); late > 0 {
			degraded = true
			missedDeadline = true
		}
	}

	// 5. Rebuffer accounting: a started, unfinished session with an empty
	// playback estimate stalls for the slot.
	for _, u := range g.live {
		if !u.detached && u.sentKB != 0 && !u.done() && u.bufferSec <= 0 {
			u.rebufferSec += g.cfg.Tau
		}
	}
	if degraded {
		g.diag.DegradedSlots++
	}
	g.maybeShed()

	// 6. Retire what ended this slot. A detached session whose last
	// delivery is still in flight stays until the outcome lands. The
	// sessions that stay close ranks, each taking its scheduler state to
	// its new row.
	live := g.live[:0]
	for i, u := range g.live {
		if !u.inFlight && (u.detached || u.done()) {
			g.retire(u)
			continue
		}
		if g.rows != nil && len(live) != i {
			g.rows.MoveRow(i, len(live))
		}
		live = append(live, u)
	}
	g.live = live
	g.slot++
	g.noteTick(time.Since(tickStart), missedDeadline)
	return alloc, nil
}

// age runs a user's playback estimate down by one slot.
func (g *Gateway) age(u *user) {
	if u.bufferSec > g.cfg.Tau {
		u.bufferSec -= g.cfg.Tau
	} else {
		u.bufferSec = 0
	}
}

// idleSlot is a slot without a transfer: the playback estimate ages and,
// unless the session was detached, the RRC tail burns on.
func (g *Gateway) idleSlot(u *user) {
	g.age(u)
	if g.cfg.trackEnergy() && !u.detached {
		u.tailEnergy += u.Tail.IdleSlot(&g.cfg.RRC, g.cfg.Tau)
	}
}

// settle brings a retired session's estimates up to the current slot. Out
// of service it only idles — the playback estimate runs down, the RRC tail
// burns out (Eq. 4) — and an idle slot depends on nothing but the session,
// so the slots since asOf are replayed when somebody asks, with the
// arithmetic a per-slot walk would have used, until nothing moves any
// more: the engine's retirement rule, whose tail half is rrc.Tail.Drained.
// Callers hold g.mu.
func (g *Gateway) settle(u *user) {
	drained := g.cfg.RRC.TailDrainedAfter()
	for ; u.asOf < g.slot; u.asOf++ {
		if u.bufferSec <= 0 && (u.detached || u.Tail.Drained(drained)) {
			break
		}
		g.idleSlot(u)
	}
	u.asOf = g.slot
}

// retire is the one way out of g.live, taken once, at the end of the slot
// the session ended in: a natural completion folds into the session
// histograms and is credited to the drain (detach folded its own), a
// detached endpoint that is an io.Closer is closed so its client hears of
// it, the delivery worker exits, the queue buffer returns to the free list
// and the endpoint and source are let go. The ledger entry stays. Callers
// hold g.mu.
func (g *Gateway) retire(u *user) {
	if !u.detached {
		g.foldSession(u)
		if g.draining {
			g.diag.Drained++
		}
	} else if c, ok := u.ep.(io.Closer); ok {
		c.Close()
	}
	if u.worker != nil {
		close(u.worker.jobs)
		u.worker = nil
	}
	g.freeBuf(u)
	u.snap, u.ep, u.src = nil, nil, nil
	u.asOf = g.slot + 1
}

// ceilDiv returns ⌈amount/unit⌉ for positive unit.
func ceilDiv(amount, unit float64) int {
	if amount <= 0 {
		return 0
	}
	n := int(amount / unit)
	if float64(n)*unit < amount {
		n++
	}
	return n
}

// spareBufs passes the queue buffers of a closed gateway on to the next
// one in the process (tests, load generators and benchmarks build gateways
// in a loop), so their pages stay mapped instead of being freed, returned
// to the OS and faulted in again. A buffer of another QueueCap is dropped.
var spareBufs sync.Pool

// fill tops up a user's receiver queue from its source, reading straight
// into the free span of its ring: two Reads where the span wraps.
func (g *Gateway) fill(u *user) {
	if u.srcDone || u.detached {
		return
	}
	if u.buf == nil {
		if n := len(g.freeBufs); n > 0 {
			u.buf, g.freeBufs = g.freeBufs[n-1], g.freeBufs[:n-1]
		} else if b, _ := spareBufs.Get().(*[]byte); b != nil && len(*b) == g.capBytes {
			u.buf = *b
		} else {
			u.buf = make([]byte, g.capBytes)
			g.bufsMade++
		}
	}
	for u.size < g.capBytes {
		tail := (u.head + u.size) % len(u.buf)
		n, err := u.src.Read(u.buf[tail:min(len(u.buf), tail+g.capBytes-u.size)])
		u.size += n
		if err != nil {
			u.srcDone = true
			return
		}
		if n == 0 {
			return
		}
	}
}

// freeBuf gives a session's ring back to the free list; a ring putBack
// grew past QueueCap is dropped instead. Callers hold g.mu.
func (g *Gateway) freeBuf(u *user) {
	if len(u.buf) == g.capBytes {
		g.freeBufs = append(g.freeBufs, u.buf)
	}
	u.buf = nil
}

// copyOut appends the first n queued bytes to dst, both segments where
// they wrap.
func (u *user) copyOut(dst []byte, n int) []byte {
	first := u.buf[u.head:min(u.head+n, len(u.buf))]
	return append(append(dst, first...), u.buf[:n-len(first)]...)
}

// peek returns the first n queued bytes as one slice: a subslice of the
// ring or, where they wrap, both segments copied into *scratch.
func (u *user) peek(n int, scratch *[]byte) []byte {
	if p := u.buf[u.head:min(u.head+n, len(u.buf))]; len(p) == n {
		return p
	}
	*scratch = u.copyOut((*scratch)[:0], n)
	return *scratch
}

// takeSnap consumes the first n queued bytes into the session's snapshot
// buffer, which its one async delivery in flight owns until it completes.
func (u *user) takeSnap(n int) []byte {
	u.snap = u.copyOut(u.snap[:0], n)
	u.consume(n)
	return u.snap
}

// consume drops the first n queued bytes.
func (u *user) consume(n int) {
	if u.head += n; u.head >= len(u.buf) {
		u.head -= len(u.buf)
	}
	u.size -= n
}

// putBack returns an undelivered async grant p to the head of the queue.
// Where it fits, its bytes are still in the ring in front of the head —
// the fills since it was taken had room only behind the tail — so only
// the head moves back. A queue that refilled behind a late failure no
// longer fits, and grows a ring of its own.
func (u *user) putBack(p []byte) {
	n := len(p) + u.size
	if n > len(u.buf) {
		u.buf, u.head = u.copyOut(append(make([]byte, 0, n), p...), u.size), 0
	} else if u.head -= len(p); u.head < 0 {
		u.head += len(u.buf)
	}
	u.size = n
}

// StatsFor returns a user's progress.
func (g *Gateway) StatsFor(id int) (Stats, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id < 0 || id >= len(g.users) {
		return Stats{}, fmt.Errorf("gateway: unknown user %d", id)
	}
	u := g.users[id]
	if u.ep == nil {
		g.settle(u)
	}
	return Stats{
		ID:              id,
		SentKB:          u.sentKB,
		QueuedKB:        units.KB(float64(u.queued()) / 1000),
		BufferSec:       u.bufferSec,
		RebufferSec:     u.rebufferSec,
		Done:            u.done(),
		Detached:        u.detached,
		DetachReason:    u.detachReason,
		TransientErrors: u.transientErrors,
		MissedSlots:     u.missedSlots,
		TransEnergy:     u.transEnergy,
		TailEnergy:      u.tailEnergy,
	}, nil
}

// AllDone reports whether every attached user's source is drained and its
// queue empty (or the user detached), with no delivery left in flight: a
// detached session's last delivery still lands, and a later Step credits it.
func (g *Gateway) AllDone() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.users) > 0 && !g.anyInService() &&
		!slices.ContainsFunc(g.live, func(u *user) bool { return u.inFlight })
}
