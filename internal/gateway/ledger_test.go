package gateway

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jointstream/internal/cell"
	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/rrc"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current gateway")

// The churn ledger pins the gateway's slot loop against the
// implementation that scanned every session ever attached every slot (the
// fixtures were recorded from it, PR 12's tree): 220 sessions through 20 in
// service with RRC energy on, scripted faults, a refused Attach and a drain
// at the end. Every slot's Step allocation (by session id, though Step
// returns one row per session in service), a digest of every session's
// Stats after every slot, and every session's final Stats (floats as
// math.Float64bits) must come out the same — also when nobody reads Stats
// before the end. Regenerate deliberately with
//
//	go test ./internal/gateway -run TestChurnLedger -update
//
// EMA runs with the zero RRC profile, so it prices no tail and the ledger
// does not depend on what the slot view says about TailGap / NeverActive
// (that has a test of its own, TestSlotViewCarriesTailState). Diag.Drained
// is left out: it used to credit, on the first draining slot, every session
// that had completed before BeginDrain as well. The synchronous fixtures
// were re-recorded when a failed delivery started to be charged at grant
// time as an asynchronous one always was; sessions 3, 9, 13 and 109 moved,
// and each synchronous ledger now equals its asynchronous twin.
const (
	ledgerSessions  = 220
	ledgerInService = 20
	ledgerCooldown  = 40 // slots stepped after Drained: T1+T2 = 7.31 s at τ = 0.25 s
)

// ledgerEndpoint is a LocalEndpoint with scripted faults: reports go
// missing while the session's age in slots is in [silentFrom, silentTo),
// and Deliver calls number [failFrom, failTo) fail transiently.
type ledgerEndpoint struct {
	*LocalEndpoint
	age                  int
	silentFrom, silentTo int
	failFrom, failTo     int
	delivers             int
	hangsUp              bool // the driver disconnects it once its first bytes have arrived
}

func (e *ledgerEndpoint) Report() (Report, bool) {
	if e.age >= e.silentFrom && e.age < e.silentTo {
		return Report{}, false
	}
	return e.LocalEndpoint.Report()
}

func (e *ledgerEndpoint) Deliver(p []byte) error {
	k := e.delivers
	e.delivers++
	if k >= e.failFrom && k < e.failTo {
		return Transient(errors.New("ledger: injected drop"))
	}
	return e.LocalEndpoint.Deliver(p)
}

// ledgerScript gives session i its faults; most sessions have none.
func ledgerScript(i int, ep *ledgerEndpoint) (scripted bool) {
	switch i {
	case 5, 105: // flapper: three missing reports, back inside the grace window
		ep.silentFrom, ep.silentTo = 2, 5
	case 9, 109: // two transient delivery failures, then healthy
		ep.failFrom, ep.failTo = 1, 3
	case 13: // never absorbs a grant: the breaker opens
		ep.failFrom, ep.failTo = 0, math.MaxInt
	case 3: // hangs up mid-session; early in Default's service order, so a grant is in hand when it does
		ep.hangsUp = true
	case 23: // goes silent for good but keeps absorbing: stale detach
		ep.silentFrom, ep.silentTo = 3, math.MaxInt
	default:
		return false
	}
	return true
}

func runChurnLedger(t *testing.T, s sched.Scheduler, async, perSlot bool) []byte {
	t.Helper()
	out, reasons, d := churnLedger(t, s, async, perSlot)
	// The scenario must keep exercising what it was written for.
	if reasons[detachFatal] == 0 || reasons[detachBreaker] == 0 || reasons[detachStale] == 0 || reasons[""] < 200 {
		t.Fatalf("ledger scenario lost a case: detach reasons %v", reasons)
	}
	if d.Reattaches == 0 || d.TransientErrors == 0 || d.Rejected != 2 {
		t.Fatalf("ledger scenario lost a case: %+v", d)
	}
	return out
}

// churnLedger runs the ledger scenario under s and returns the ledger, the
// sessions' detach reasons and the diagnostics. A scheduler with a
// bind(*Gateway) method is handed the gateway before the first Attach.
func churnLedger(t *testing.T, s sched.Scheduler, async, perSlot bool) ([]byte, map[DetachReason]int, Diag) {
	t.Helper()
	cfg := Config{
		Tau: 0.25, Unit: 10, Capacity: 10000,
		Radio: radio.Paper3G(), RRC: rrc.Paper3G(),
		QueueCap:    1200,
		MaxSessions: ledgerInService, AdmitHeadroomFrac: 2,
	}
	if async {
		// A deadline no delivery here can miss, so the run does not depend
		// on the wall clock.
		cfg.Policy = Policy{AsyncDelivery: true, SlotDeadline: 10 * time.Second}
	}
	g, err := New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if b, ok := s.(interface{ bind(*Gateway) }); ok {
		b.bind(g)
	}

	src := rng.New(7)
	eps := make([]*ledgerEndpoint, 0, ledgerSessions)
	attach := func() (int, error) {
		i := len(eps)
		sine := signal.SineConfig{Bounds: signal.DefaultBounds, PeriodSlots: 48, Phase: src.Uniform(0, 2*math.Pi), NoiseStdDBm: 4}
		tr, err := signal.NewStatelessSine(sine, src.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		// Half-KB sizes: most videos are not a multiple of the 10 KB unit.
		size := units.KB(math.Round(src.Uniform(400, 1600)*2) / 2)
		local, err := NewLocalEndpoint(tr, units.KBps(src.Uniform(300, 600)), false)
		if err != nil {
			t.Fatal(err)
		}
		ep := &ledgerEndpoint{LocalEndpoint: local}
		if ledgerScript(i, ep) {
			size = 3000 // long enough to live through its script
		}
		source, err := NewPatternSource(size)
		if err != nil {
			t.Fatal(err)
		}
		id, err := g.Attach(ep, source)
		if err == nil {
			eps = append(eps, ep)
		}
		return id, err
	}
	live := make([]int, ledgerInService)
	for k := range live {
		if live[k], err = attach(); err != nil {
			t.Fatal(err)
		}
	}

	var out bytes.Buffer
	digest := func() uint64 {
		h := fnv.New64a()
		for id := range eps {
			st, err := g.StatsFor(id)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(ledgerStats(st))
		}
		return h.Sum64()
	}
	cooldown := 0
	var rowIDs []int
	for slot := 0; cooldown < ledgerCooldown; slot++ {
		if slot > 2000 {
			t.Fatal("ledger scenario did not drain in 2000 slots")
		}
		// Step's row i is the i-th session live when the slot begins.
		rowIDs = rowIDs[:0]
		for _, u := range g.live {
			rowIDs = append(rowIDs, u.id)
		}
		alloc, err := g.Step()
		if err != nil {
			t.Fatal(err)
		}
		if perSlot {
			fmt.Fprintf(&out, "slot %d users=%d stats=%016x alloc=", slot, len(eps), digest())
			for row, a := range alloc {
				if a != 0 {
					fmt.Fprintf(&out, "%d:%d,", rowIDs[row], a)
				}
			}
			out.WriteByte('\n')
		}

		for k, id := range live {
			if id < 0 {
				continue
			}
			ep := eps[id]
			ep.age++
			ep.Advance()
			if ep.hangsUp && ep.ReceivedBytes() > 0 {
				ep.Disconnect()
			}
			st, _ := g.StatsFor(id)
			if !st.Done && !st.Detached {
				continue
			}
			live[k] = -1
			if len(eps) < ledgerSessions {
				if live[k], err = attach(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if slot == 10 {
			if _, err := attach(); !errors.Is(err, cell.ErrOverCapacity) {
				t.Fatalf("attach over the session cap: %v", err)
			}
		}
		if len(eps) == ledgerSessions && !g.isDraining() {
			g.BeginDrain()
			if _, err := attach(); !errors.Is(err, errDraining) {
				t.Fatalf("attach while draining: %v", err)
			}
		}
		if g.Drained() {
			cooldown++
		}
	}

	reasons := map[DetachReason]int{}
	for id, ep := range eps {
		st, _ := g.StatsFor(id)
		reasons[st.DetachReason]++
		fmt.Fprintf(&out, "session %d recv=%d stats=%x\n", id, ep.ReceivedBytes(), ledgerStats(st))
	}
	d := g.Diagnostics()
	d.Drained = 0
	fmt.Fprintf(&out, "diag %+v\n", d)
	m := g.sessionWindowMetrics()
	fmt.Fprintf(&out, "ended window=%d total=%d rebuf=%016x,%016x energy=%016x,%016x\n", m.EndedWindow, m.EndedTotal,
		math.Float64bits(m.RebufP50Sec), math.Float64bits(m.RebufP99Sec), math.Float64bits(m.EnergyP50MJ), math.Float64bits(m.EnergyP99MJ))
	return out.Bytes(), reasons, d
}

// ledgerStats is one Stats as bytes, floats by their bits.
func ledgerStats(st Stats) []byte {
	b := make([]byte, 0, 96)
	for _, f := range []float64{float64(st.SentKB), float64(st.QueuedKB), float64(st.BufferSec), float64(st.RebufferSec), float64(st.TransEnergy), float64(st.TailEnergy)} {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(f))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(st.ID))
	b = binary.BigEndian.AppendUint32(b, uint32(st.TransientErrors))
	b = binary.BigEndian.AppendUint32(b, uint32(st.MissedSlots))
	flags := byte(0)
	if st.Done {
		flags |= 1
	}
	if st.Detached {
		flags |= 2
	}
	b = append(b, flags)
	return append(b, st.DetachReason...)
}

func TestChurnLedger(t *testing.T) {
	ema := func() sched.Scheduler {
		e, err := sched.NewEMA(sched.EMAConfig{V: 0.0005})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, arm := range []struct {
		name  string
		sched func() sched.Scheduler
		async bool
	}{
		{"default_sync", func() sched.Scheduler { return sched.NewDefault() }, false},
		{"default_async", func() sched.Scheduler { return sched.NewDefault() }, true},
		{"ema_sync", ema, false},
		{"ema_async", ema, true},
	} {
		t.Run(arm.name, func(t *testing.T) {
			got := runChurnLedger(t, arm.sched(), arm.async, true)
			path := filepath.Join("testdata", "churn_ledger_"+arm.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal(ledgerDiff(got, want))
			}
		})
		// Nobody asks for Stats until the end: an ended session's tail
		// energy and playback estimate are then caught up over many slots
		// at once, and must land on the same bits.
		t.Run(arm.name+"_stats_at_end", func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "churn_ledger_"+arm.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got := runChurnLedger(t, arm.sched(), arm.async, false)
			if i := bytes.Index(want, []byte("session 0 ")); i < 0 || !bytes.Equal(got, want[i:]) {
				t.Fatalf("final ledger differs when Stats are read only at the end:\n%s", got)
			}
		})
	}
}

// ledgerDiff describes the first difference between two ledgers.
func ledgerDiff(got, want []byte) string {
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("ledger line %d differs\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("ledger has %d lines, want %d", len(gl), len(wl))
}

// idRows hands its scheduler the slot layout the gateway had before it
// scheduled only the sessions in service: one row per session ever
// attached, at its id, the row of an ended session zero. It copies the
// grants back to the gateway's rows and is no sched.RowState, so the
// scheduler's per-row state stays at each session's id throughout.
type idRows struct {
	sched.Scheduler
	g *Gateway
}

func (r *idRows) bind(g *Gateway) { r.g = g }

// Allocate runs under g.mu, so it reads g.live directly.
func (r *idRows) Allocate(slot *sched.Slot, alloc []int) {
	n := len(r.g.users)
	from, to := slot.Cols, &sched.Columns{
		Active:      make([]bool, n),
		Sig:         make([]units.DBm, n),
		LinkRate:    make([]units.KBps, n),
		EnergyPerKB: make([]units.MJ, n),
		Rate:        make([]units.KBps, n),
		BufferSec:   make([]units.Seconds, n),
		RemainingKB: make([]units.KB, n),
		TailGap:     make([]units.Seconds, n),
		NeverActive: make([]bool, n),
		MaxUnits:    make([]int32, n),
	}
	for i, u := range r.g.live {
		id := u.id
		to.Active[id], to.NeverActive[id] = from.Active[i], from.NeverActive[i]
		to.Sig[id], to.LinkRate[id], to.EnergyPerKB[id], to.Rate[id] = from.Sig[i], from.LinkRate[i], from.EnergyPerKB[i], from.Rate[i]
		to.BufferSec[id], to.RemainingKB[id], to.TailGap[id], to.MaxUnits[id] = from.BufferSec[i], from.RemainingKB[i], from.TailGap[i], from.MaxUnits[i]
	}
	view := *slot
	view.Cols, view.ActiveList = to, make([]int, 0, len(slot.ActiveList))
	for _, i := range slot.ActiveList {
		view.ActiveList = append(view.ActiveList, r.g.live[i].id)
	}
	byID := make([]int, n)
	r.Scheduler.Allocate(&view, byID)
	for i, u := range r.g.live {
		alloc[i] = byID[u.id]
	}
}

// TestChurnRowsMatchIDRows: on one row per session in service, compacted in
// attach order with its state moved on the sched.RowState contract, every
// scheduler serves the ledger scenario exactly as it does on one row per
// session ever attached, where no session's row or state ever moves. EMA
// runs with asynchronous delivery too.
func TestChurnRowsMatchIDRows(t *testing.T) {
	for _, name := range strings.Split(sched.Names, "|") {
		mk := func() sched.Scheduler {
			s, err := sched.ByName(name, sched.Params{Budget: 2000, V: 0.0005, Radio: radio.Paper3G(), RRC: rrc.Paper3G()})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		for _, async := range []bool{false, true} {
			if async && name != "ema" {
				continue
			}
			got, _, _ := churnLedger(t, mk(), async, true)
			want, _, _ := churnLedger(t, &idRows{Scheduler: mk()}, async, true)
			if !bytes.Equal(got, want) {
				t.Errorf("%s async=%v: %s", name, async, ledgerDiff(got, want))
			}
		}
	}
}

// TestChurnLedgerSyncMatchesAsync: energy is charged at grant time and
// playback credited when a delivery lands, in both delivery modes, and no
// delivery in the scenario outlives its slot, so the two modes keep the
// same ledger byte for byte.
func TestChurnLedgerSyncMatchesAsync(t *testing.T) {
	for _, s := range []string{"default", "ema"} {
		sync, err := os.ReadFile(filepath.Join("testdata", "churn_ledger_"+s+"_sync.golden"))
		if err != nil {
			t.Fatal(err)
		}
		async, err := os.ReadFile(filepath.Join("testdata", "churn_ledger_"+s+"_async.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sync, async) {
			t.Errorf("%s: the synchronous and asynchronous ledgers differ", s)
		}
	}
}
