package simtest

import (
	"testing"
	"testing/quick"

	"jointstream/internal/cell"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
)

// engineCfg is the shared shape of the engine differential runs: strict
// mode re-validates the slot view (including the engine's ActiveList)
// every slot, and per-user-slot recording exercises the admission
// backfill and retirement padding paths.
func engineCfg() cell.Config {
	cfg := cell.PaperConfig()
	cfg.Capacity = 1000
	cfg.MaxSlots = 180
	cfg.Record = cell.RecordUserSlots
	cfg.Strict = true
	return cfg
}

// TestEngineMatchesReference pins the sharded engine to the full-scan
// reference arm bit for bit, for every scheduler in the repo, on a
// staggered workload whose users join late and finish at different
// slots (so admission, active-list maintenance and retirement all
// fire). The workloads fit in one shard, where equality is exact by
// construction — any deviation is an engine bug, not float noise.
func TestEngineMatchesReference(t *testing.T) {
	for name, mk := range factories(t) {
		t.Run(name, func(t *testing.T) {
			build := func() (*cell.Simulator, error) {
				wl, err := StaggeredWorkload(41, 6, 8)
				if err != nil {
					return nil, err
				}
				return cell.New(engineCfg(), wl, mk())
			}
			if err := CheckEngineEquivalence(true, build); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestEngineMatchesReferenceProperty widens the pin across random
// seeds, user counts and arrival patterns (including the paper's
// all-start-at-zero case when the interarrival draw is zero).
func TestEngineMatchesReferenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		users := 1 + src.Intn(12)
		var inter units.Seconds
		if src.Bool(0.7) {
			inter = units.Seconds(src.Uniform(1, 12))
		}
		build := func() (*cell.Simulator, error) {
			wl, err := StaggeredWorkload(seed, users, inter)
			if err != nil {
				return nil, err
			}
			// Schedulers are stateful, so each arm gets its own instance.
			em, err := sched.NewEMA(sched.EMAConfig{V: 0.2, RRC: engineCfg().RRC})
			if err != nil {
				return nil, err
			}
			return cell.New(engineCfg(), wl, em)
		}
		if err := CheckEngineEquivalence(true, build); err != nil {
			t.Logf("seed %d users %d inter %v: %v", seed, users, inter, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg(12)); err != nil {
		t.Error(err)
	}
}

// TestMultiShardMatchesReference forces many shards (ShardSize 8 over
// 48 users → 6 shards) and checks the engine still reproduces the
// reference up to the documented reassociation tolerance: per-user
// state exactly, slot aggregates to 1e-9 relative.
func TestMultiShardMatchesReference(t *testing.T) {
	build := func() (*cell.Simulator, error) {
		wl, err := StaggeredWorkload(77, 48, 2)
		if err != nil {
			return nil, err
		}
		cfg := engineCfg()
		cfg.Capacity = 4000
		cfg.MaxSlots = 120
		cfg.ShardSize = 8
		return cell.New(cfg, wl, sched.NewDefault())
	}
	if err := CheckEngineEquivalence(false, build); err != nil {
		t.Error(err)
	}
}

// TestShardedWorkerDeterminism asserts the tentpole guarantee of the
// sharded tick path: with the shard layout pinned (ShardSize 8 over 96
// users → 12 shards per full slot), every worker count produces a
// byte-identical Result.
func TestShardedWorkerDeterminism(t *testing.T) {
	build := func(workers int) (*cell.Simulator, error) {
		wl, err := StaggeredWorkload(13, 96, 1)
		if err != nil {
			return nil, err
		}
		cfg := engineCfg()
		cfg.Capacity = 8000
		cfg.MaxSlots = 100
		cfg.ShardSize = 8
		cfg.Workers = workers
		em, err := sched.NewEMA(sched.EMAConfig{V: 0.2, RRC: cfg.RRC})
		if err != nil {
			return nil, err
		}
		return cell.New(cfg, wl, em)
	}
	if err := CheckWorkerDeterminism([]int{1, 2, 4, 8}, build); err != nil {
		t.Error(err)
	}
}
