package main

// sizes fixes how much work each workload does. fullSizes is what
// BENCHMARK.json is measured at; the tests shrink every field about a
// hundredfold. Each output carries the sizes it was taken at.
type sizes struct {
	// SweepQuick runs paper_sweep on experiments.QuickOptions (tests only).
	SweepQuick bool `json:"sweep_quick,omitempty"`

	DenseUsers int `json:"dense_users"`
	DenseSlots int `json:"dense_slots"`
	DenseTile  int `json:"dense_tile_slots"`

	ChurnInitial     int     `json:"churn_initial_sessions"`
	ChurnMaxSessions int     `json:"churn_max_sessions"`
	ChurnSlots       int     `json:"churn_slots"`
	ChurnTile        int     `json:"churn_tile_slots"`
	ChurnPlaySec     float64 `json:"churn_mean_playback_s"`
	ChurnOverload    float64 `json:"churn_arrivals_over_service"`

	FleetCells        int `json:"fleet_cells"`
	FleetUsersPerCell int `json:"fleet_users_per_cell"`
	FleetSlots        int `json:"fleet_slots"`
	FleetEpochSlots   int `json:"fleet_epoch_slots"`
	FleetTile         int `json:"fleet_tile_slots"`

	GatewayInService int     `json:"gateway_in_service"`
	GatewaySessions  int     `json:"gateway_sessions"`
	GatewayMeanKB    float64 `json:"gateway_mean_kb"`
	GatewayTCPKB     float64 `json:"gateway_tcp_kb"`

	// The probes of the traced run: the scheduler decision-cost column
	// runs each scheduler on SchedUsers users for SchedSlots slots, the
	// micro-probes make ProbeCalls calls each.
	SchedUsers int `json:"sched_users"`
	SchedSlots int `json:"sched_slots"`
	ProbeCalls int `json:"probe_calls"`
}

// fullSizes keeps the issue's N, K and cell count and cuts slot and
// session counts until 114 runs fit the driver's 3420 s: see README.md.
func fullSizes() sizes {
	return sizes{
		DenseUsers: 100_000, DenseSlots: 256, DenseTile: 64,

		ChurnInitial: 10_000, ChurnMaxSessions: 11_000, ChurnSlots: 400, ChurnTile: 32,
		ChurnPlaySec: 200, ChurnOverload: 1.3,

		FleetCells: 2_048, FleetUsersPerCell: 40, FleetSlots: 256, FleetEpochSlots: 64, FleetTile: 64,

		GatewayInService: 500, GatewaySessions: 6_000, GatewayMeanKB: 150, GatewayTCPKB: 2_000,

		SchedUsers: 40, SchedSlots: 2_000, ProbeCalls: 1_000_000,
	}
}
