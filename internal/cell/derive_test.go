package cell

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// TestLinkBlockLayout pins a link row at its signal: a window block and a
// LinkTable block of r rows × s slots hold exactly 8·r·s bytes plus their
// rate rows, counted over every slice field of linkCols by reflection, so
// a physics column cannot creep back into the blocks unnoticed.
func TestLinkBlockLayout(t *testing.T) {
	sliceBytes := func(c *linkCols) int64 {
		v := reflect.ValueOf(c).Elem()
		var n int64
		for k := 0; k < v.NumField(); k++ {
			if f := v.Field(k); f.Kind() == reflect.Slice {
				n += int64(f.Len()) * int64(f.Type().Elem().Size())
			}
		}
		return n
	}
	// 40 × 16 rows fill in place into a borrowed block; 300 × 16 hand off
	// and allocate both blocks up front.
	for _, rows := range []int{40, 300} {
		for _, jitter := range []float64{0, 0.2} {
			const slots = 16
			wl := fillWorkload(t, rows, jitter, false)
			workload.PrewarmAll(1, wl, slots)
			rateRows := slots
			if jitter == 0 {
				rateRows = 1
			}
			want := int64(8*rows*slots + 8*rows*rateRows)
			name := fmt.Sprintf("%d rows, jitter %v", rows, jitter)

			w := newLinkWindow(1, slots, rows, slots, constRate(wl), wl)
			w.ensure(0)
			blocks := []*linkBlock{w.cur}
			if w.next != nil {
				blocks = append(blocks, w.next)
			}
			for _, b := range blocks {
				if got := sliceBytes(&b.linkCols); got != want || b.bytes() != want {
					t.Errorf("%s: window block holds %d bytes (bytes() %d), want %d", name, got, b.bytes(), want)
				}
			}
			w.stop()

			cfg := PaperConfig()
			cfg.MaxSlots = slots
			lt, err := CompileLinkTiled(cfg, wl, slots)
			if err != nil {
				t.Fatal(err)
			}
			if got := sliceBytes(&lt.block(0).linkCols); got != want || lt.MemoryBytes() != want {
				t.Errorf("%s: table block holds %d bytes (MemoryBytes %d), want %d", name, got, lt.MemoryBytes(), want)
			}
		}
	}
}

// physRow is what a slot's view holds of one active user's link.
type physRow struct {
	slot, user int
	sig        units.DBm
	v          units.KBps
	p          units.MJ
	maxUnits   int32
}

// physicsRecorder is the Default scheduler, recording the link physics of
// every active row of every slot's view before it allocates.
type physicsRecorder struct {
	sched.Scheduler
	rows []physRow
}

func (r *physicsRecorder) Allocate(slot *sched.Slot, alloc []int) {
	c := slot.Cols
	for i, active := range c.Active {
		if active {
			r.rows = append(r.rows, physRow{slot.N, i, c.Sig[i], c.LinkRate[i], c.EnergyPerKB[i], c.MaxUnits[i]})
		}
	}
	r.Scheduler.Allocate(slot, alloc)
}

// analyticView wraps a scheduler and holds every active row of every
// slot's view — signal, v, P, the Eq. (1) limit and the required rate — to
// the session's trace and the run's radio model evaluated through their
// interfaces: the analytic reference of an open run, which RunReference
// cannot drive. It counts the rows it checked and keeps the first
// difference.
type analyticView struct {
	sched.Scheduler
	o    *OpenSim // set once NewOpen returns
	rows int
	diff string
}

func (a *analyticView) Allocate(slot *sched.Slot, alloc []int) {
	s, c := a.o.eng, slot.Cols
	unit := float64(s.cfg.Unit)
	for i, active := range c.Active {
		if !active {
			continue
		}
		a.rows++
		sess := s.sessions[i]
		sig := sess.Signal.At(slot.N)
		v := s.cfg.Radio.Throughput.Throughput(sig)
		lu := floorUnits(float64(v)*float64(s.cfg.Tau), unit)
		want := physRow{slot.N, i, sig, v, s.cfg.Radio.Power.EnergyPerKB(sig), maxUnitsFor(true, lu, c.RemainingKB[i], unit)}
		got := physRow{slot.N, i, c.Sig[i], c.LinkRate[i], c.EnergyPerKB[i], c.MaxUnits[i]}
		if rate := sess.RateAt(slot.N); a.diff == "" && (got != want || c.Rate[i] != rate) {
			a.diff = fmt.Sprintf("%+v rate %v, analytic %+v rate %v", got, c.Rate[i], want, rate)
		}
	}
	a.Scheduler.Allocate(slot, alloc)
}

// check fails t unless every row the view saw matched the analytic one.
func (a *analyticView) check(t *testing.T) {
	t.Helper()
	if a.rows == 0 {
		t.Fatal("no active user-slot checked")
	}
	if a.diff != "" {
		t.Fatalf("view != analytic: %s", a.diff)
	}
}

// firstPhysDiff describes the first row where two recordings differ.
func firstPhysDiff(a, b []physRow) string {
	for k := range min(len(a), len(b)) {
		if a[k] != b[k] {
			return fmt.Sprintf("row %d: %+v != %+v", k, a[k], b[k])
		}
	}
	return fmt.Sprintf("%d rows != %d rows", len(a), len(b))
}

// TestDerivedPhysicsMatchReference holds what the tick derives from the
// link rows — v, P and, through MaxUnits, ⌊τ·v/δ⌋ — to the analytic
// columns slot by slot: every active user's view in every slot, and every
// user's totals. Closed cells take the dense kernel (everyone starts at
// slot 0) or the gathered path (staggered starts) over a link window and
// are held to RunReference; an unbounded open cell with late admissions,
// departures and a compaction is held row by row to the model's
// interfaces (analyticView), and to the same script on default blocks.
// Each runs on one worker and two, under the paper's model (an exact
// radio.Table) and under one with no exact table.
func TestDerivedPhysicsMatchReference(t *testing.T) {
	const users, slots = smallNSerialCutoff + 52, 40
	models := map[string]radio.Model{"paper": radio.Paper3G(), "chord": chordRadio()}
	for name, model := range models {
		for _, workers := range []int{1, 2} {
			for _, path := range []string{"dense", "gathered"} {
				t.Run(fmt.Sprintf("%s/w%d/%s", name, workers, path), func(t *testing.T) {
					wl := fillWorkload(t, users, 0.2, false)
					if path == "dense" {
						for _, s := range wl {
							s.StartSlot = 0
						}
					}
					cfg := PaperConfig()
					cfg.Radio, cfg.Workers, cfg.MaxSlots, cfg.LinkTileSlots = model, workers, slots, 16
					cfg.Capacity = units.KBps(users * 300)
					run := func(ref bool) (*Result, []physRow) {
						rec := &physicsRecorder{Scheduler: sched.NewDefault()}
						sim := mustNewWith(t, cfg, wl, rec)
						if sim.win == nil {
							t.Fatal("no link window")
						}
						var res *Result
						var err error
						if ref {
							res, err = sim.RunReference(context.Background())
						} else {
							res, err = sim.Run()
						}
						if err != nil {
							t.Fatal(err)
						}
						return res, rec.rows
					}
					want, wantRows := run(true)
					got, gotRows := run(false)
					if len(wantRows) == 0 {
						t.Fatal("no active user-slot recorded")
					}
					if !slices.Equal(gotRows, wantRows) {
						t.Fatalf("derived view != analytic: %s", firstPhysDiff(gotRows, wantRows))
					}
					if !reflect.DeepEqual(got.Users, want.Users) {
						t.Fatal("per-user totals differ from the reference arm")
					}
				})
			}
			t.Run(fmt.Sprintf("%s/w%d/open", name, workers), func(t *testing.T) {
				run := func(tile int) (*Result, []physRow) {
					cfg := PaperConfig()
					cfg.Radio, cfg.Workers, cfg.MaxSlots, cfg.RunFullHorizon = model, workers, 80, true
					cfg.Capacity, cfg.ShardSize = 30_000, 32
					rec := &physicsRecorder{Scheduler: sched.NewDefault()}
					chk := &analyticView{Scheduler: rec}
					o, err := NewOpen(OpenConfig{
						Cell: cfg, Unbounded: true, MaxSessions: 256,
						TileSlots: tile,
					}, nil, chk)
					if err != nil {
						t.Fatal(err)
					}
					chk.o = o
					defer chk.check(t)
					defer o.Stop()
					if err := o.Start(context.Background()); err != nil {
						t.Fatal(err)
					}
					wc := workload.Config{Users: 200, SizeMin: 1500, SizeMax: 6000, RateMin: 300, RateMax: 600, MeanInterarrival: 2, StatelessSignal: true}
					wc.Signal = workload.PaperDefaults(200).Signal
					wl, err := workload.Generate(wc, rng.New(41))
					if err != nil {
						t.Fatal(err)
					}
					next := 0
					admit := func(n int) {
						for ; n > 0; n-- {
							if _, err := o.Admit(wl[next]); err != nil {
								t.Fatal(err)
							}
							next++
						}
					}
					advance := func(n int) {
						if _, err := o.AdvanceTo(n); err != nil {
							t.Fatal(err)
						}
					}
					admit(120)
					advance(10)
					admit(40) // late: the next slot is already prepared
					advance(20)
					for idx := 0; idx < 150; idx++ {
						if ser, ok := o.Serial(idx); ok && idx%5 != 0 {
							if _, err := o.DepartSerial(-1, ser); err != nil {
								t.Fatal(err)
							}
						}
					}
					before := o.Stats().TableLen
					advance(40)
					if after := o.Stats().TableLen; after >= before {
						t.Fatalf("table not compacted: %d rows before, %d after", before, after)
					}
					admit(30)
					advance(80)
					return o.Finish(), rec.rows
				}
				want, wantRows := run(0)
				got, gotRows := run(8)
				if !slices.Equal(gotRows, wantRows) {
					t.Fatalf("derived view != analytic: %s", firstPhysDiff(gotRows, wantRows))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("the open run on 8-slot blocks differs from the one on default blocks")
				}
			})
		}
	}
}

func mustNewWith(t *testing.T, cfg Config, wl []*workload.Session, s sched.Scheduler) *Simulator {
	t.Helper()
	sim, err := New(cfg, wl, s)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}
