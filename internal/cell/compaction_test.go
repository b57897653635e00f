package cell

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// retireWorkload is n sessions small enough to finish, retire and leave
// the live list within a few dozen slots. With staggered set, arrivals
// spread over the first 40 slots, so the live list is never the whole
// table and every slot runs the general shard bodies; otherwise every
// session starts at slot 0 and the dense kernel runs until the first
// retirement.
func retireWorkload(t *testing.T, n int, staggered bool) []*workload.Session {
	t.Helper()
	wc := workload.PaperDefaults(n)
	wc.SizeMin, wc.SizeMax = 300, 20000
	wc.StatelessSignal = true
	wl, err := workload.Generate(wc, rng.New(29))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range wl {
		s.StartSlot = 0
		if staggered {
			s.StartSlot = (i * 7) % 40
		}
	}
	return wl
}

// TestRetireCompactionMatchesScan holds the engine's retirement by
// position to a naive oracle: after every slot, the live list and the
// retirement log must be exactly a full-scan filter of the previous live
// list plus the slot's arrivals — kept when not retired, logged in
// ascending order when retired — and every dropped user's dynamic columns
// are zero. It covers the three places a user retires: the dense fused
// kernel (every user live, up to the first retirement), the general fused
// body, and the final slot's plain commit; at one worker, two and all,
// over a sliding link window of 8 and 32 slots and over a table. The cell
// is wider than smallNSerialCutoff so the shards really run in parallel.
func TestRetireCompactionMatchesScan(t *testing.T) {
	const users = smallNSerialCutoff + 700
	for _, staggered := range []bool{false, true} {
		wl := retireWorkload(t, users, staggered)
		for _, tile := range []int{8, 32, 0} {
			for _, workers := range []int{1, 2, 0} {
				name := fmt.Sprintf("staggered=%v/tile%d/w%d", staggered, tile, workers)
				t.Run(name, func(t *testing.T) {
					cfg := PaperConfig()
					cfg.Capacity = users * 700
					cfg.MaxSlots, cfg.RunFullHorizon = 60, true
					cfg.LinkTileSlots, cfg.Workers = tile, workers
					sim, err := New(cfg, wl, sched.NewDefault())
					if err != nil {
						t.Fatal(err)
					}
					sim.retiredLog = []int{} // non-nil: log retirements
					if err := sim.Start(context.Background()); err != nil {
						t.Fatal(err)
					}
					defer sim.Finish()
					var denseRetired, generalRetired, finalRetired int
					for n := 0; n < cfg.MaxSlots; n++ {
						// The oracle: the previous live list and the slot's
						// arrivals, filtered by one scan of their flags.
						cand := slices.Clone(sim.live)
						for i := range sim.users {
							if int(sim.users[i].startSlot) == n {
								cand = append(cand, i)
							}
						}
						slices.Sort(cand)
						sim.retiredLog = sim.retiredLog[:0]
						if _, err := sim.Advance(n + 1); err != nil {
							t.Fatal(err)
						}
						var wantLive, wantLog []int
						for _, i := range cand {
							if sim.users[i].retired {
								wantLog = append(wantLog, i)
							} else {
								wantLive = append(wantLive, i)
							}
						}
						if !slices.Equal(sim.live, wantLive) {
							t.Fatalf("slot %d: live list (%d users) != scan of the previous one (%d)", n, len(sim.live), len(wantLive))
						}
						if !slices.Equal(sim.retiredLog, wantLog) {
							t.Fatalf("slot %d: retired log %v != scan %v", n, sim.retiredLog, wantLog)
						}
						c := &sim.cols
						for _, i := range wantLog {
							if c.Active[i] || c.BufferSec[i] != 0 || c.RemainingKB[i] != 0 || c.TailGap[i] != 0 ||
								c.NeverActive[i] || c.MaxUnits[i] != 0 || sim.alloc[i] != 0 {
								t.Fatalf("slot %d: retired user %d keeps dynamic state", n, i)
							}
						}
						switch {
						case n == cfg.MaxSlots-1:
							finalRetired += len(wantLog)
						case sim.curDense:
							denseRetired += len(wantLog)
						default:
							generalRetired += len(wantLog)
						}
					}
					if (denseRetired == 0) != staggered || generalRetired == 0 || finalRetired == 0 {
						t.Fatalf("retirements: dense kernel %d, general body %d, final commit %d", denseRetired, generalRetired, finalRetired)
					}
				})
			}
		}
	}
}

// FuzzWindowRows drives a link window's row bookkeeping — admitRow,
// dropRow, flush, a tick (flush, then ensure, as OpenSim.AdvanceTo does
// before every slot), compactRows and park (a no-op while the window holds
// a spare) — against a map of occupied rows.
// Whenever ensure fills a window, the occupied list it fills from must be
// exactly the map's rows, ascending, without duplicates; at every tick
// each occupied row's slot must hold what the analytic path computes for
// its session, so a row the list lost, or an admitted row no fill wrote,
// shows. The script's length picks what the window hands to the
// background until its first admission.
func FuzzWindowRows(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 4, 2, 0, 3, 0, 12, 2, 1, 4, 5, 4, 60})
	f.Add([]byte{1, 9, 17, 25, 3, 2, 10, 0, 3, 4, 4, 4, 4, 5, 2, 2, 0, 1, 124})
	f.Add([]byte{0, 2, 0, 2, 0, 3, 2, 0, 3, 4, 20, 0, 0, 0, 0, 3, 5, 0, 4, 44, 2})
	const rowCap, span, initial = 48, 8, 20
	wc := workload.PaperDefaults(rowCap)
	wc.StatelessSignal = true
	wc.RateJitterFrac = 0
	sessions, err := workload.Generate(wc, rng.New(31))
	if err != nil {
		f.Fatal(err)
	}
	cfg := PaperConfig()
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		w := newLinkWindow(2, span, rowCap, -1, true, sessions[:initial])
		w.handoffMin = []int{handoffAlways, 12 * span, handoffNever}[len(script)%3]
		defer w.stop()
		occ := make(map[int]*workload.Session, rowCap)
		for i, s := range sessions[:initial] {
			occ[i] = s
		}
		occupied := func() []int {
			rows := make([]int, 0, len(occ))
			for i := range occ {
				rows = append(rows, i)
			}
			slices.Sort(rows)
			return rows
		}
		view := func(n int) ([]units.DBm, []units.KBps) {
			return w.slotColumns(n, rowCap)
		}
		clock, next := 0, initial
		for _, op := range script {
			arg := int(op >> 3)
			switch op % 7 {
			case 0, 1: // admit into the first free row from arg on
				for k := 0; k < rowCap; k++ {
					if i := (arg + k) % rowCap; occ[i] == nil {
						s := sessions[next%len(sessions)]
						next++
						w.admitRow(i, s)
						occ[i] = s
						break
					}
				}
			case 2: // drop an occupied row
				if rows := occupied(); len(rows) > 0 {
					i := rows[arg%len(rows)]
					w.dropRow(i)
					delete(occ, i)
				}
			case 3:
				w.flush(clock)
			case 4: // tick 1..2·span slots
				for k := 0; k <= arg%(2*span); k++ {
					w.flush(clock)
					fills := w.willEvict(clock)
					w.ensure(clock)
					rows := occupied()
					if fills && !slices.Equal(w.rows, rows) {
						t.Fatalf("slot %d: window filled from rows %v, occupied %v", clock, w.rows, rows)
					}
					bySlot := make([]*workload.Session, rowCap)
					for i, s := range occ {
						bySlot[i] = s
					}
					checkRowsAnalytic(t, view, cfg, bySlot, clock, rows)
					clock++
				}
			case 5: // compact to an identity prefix
				rows := occupied()
				compacted := make([]*workload.Session, len(rows))
				clear(occ)
				for k, i := range rows {
					compacted[k] = w.src[i].Load()
					occ[k] = compacted[k]
				}
				w.compactRows(compacted)
			case 6:
				w.park(-1) // mid-block too, as stop does
			}
		}
	})
}
