package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// Handler exposes a running Gateway over HTTP for monitoring:
//
//	GET /healthz        -> 200 "ok"
//	GET /stats          -> JSON array of per-user Stats
//	GET /stats?user=3   -> JSON Stats of one user
//	GET /summary        -> JSON gateway summary (slot count; bytes, energy
//	                       and rebuffering summed over sessions)
//	GET /diag           -> JSON degradation + open-system counters,
//	                       tick-duration p50/p99 (ms), drain state
//	GET /metrics        -> JSON sliding-window session quality: p50/p99
//	                       lifetime rebuffer (sec) and energy (mJ) over
//	                       recently ended sessions, plus tick p50/p99
//
// All endpoints are read-only; the handler is safe to serve while Step is
// being driven from another goroutine (the Gateway is internally locked).
func Handler(gw *Gateway) http.Handler {
	if gw == nil {
		panic("gateway: nil gateway for Handler")
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		if q := r.URL.Query().Get("user"); q != "" {
			id, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "bad user id", http.StatusBadRequest)
				return
			}
			st, err := gw.StatsFor(id)
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			writeJSON(w, toView(st))
			return
		}
		writeJSON(w, allStats(gw))
	})
	mux.HandleFunc("GET /summary", func(w http.ResponseWriter, r *http.Request) {
		stats := allStats(gw)
		sum := summaryView{
			Slot:      gw.Slot(),
			Users:     len(stats),
			AllDone:   gw.AllDone(),
			BypassKB:  float64(gw.BypassedKB()),
			Scheduler: gw.sched.Name(),
		}
		for _, st := range stats {
			sum.SentKB += st.SentKB
			sum.EnergyMJ += st.TransEnergyMJ + st.TailEnergyMJ
			sum.RebufferSec += st.RebufferSec
			if st.Detached {
				sum.Detached++
			}
		}
		writeJSON(w, sum)
	})
	mux.HandleFunc("GET /diag", func(w http.ResponseWriter, r *http.Request) {
		d := gw.Diagnostics()
		writeJSON(w, diagView{
			Slot:            gw.Slot(),
			Draining:        gw.Draining(),
			TransientErrors: d.TransientErrors,
			FatalErrors:     d.FatalErrors,
			MissedDeadlines: d.MissedDeadlines,
			StaleSlots:      d.StaleSlots,
			Reattaches:      d.Reattaches,
			BreakerOpens:    d.BreakerOpens,
			StaleDetaches:   d.StaleDetaches,
			DegradedSlots:   d.DegradedSlots,
			Admitted:        d.Admitted,
			Rejected:        d.Rejected,
			Shed:            d.Shed,
			Drained:         d.Drained,
			TickP50Ms:       gw.TickQuantileMs(0.50),
			TickP99Ms:       gw.TickQuantileMs(0.99),
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		m := gw.SessionWindowMetrics()
		writeJSON(w, metricsView{
			Slot:        gw.Slot(),
			EndedWindow: m.EndedWindow,
			EndedTotal:  m.EndedTotal,
			RebufP50Sec: m.RebufP50Sec,
			RebufP99Sec: m.RebufP99Sec,
			EnergyP50MJ: m.EnergyP50MJ,
			EnergyP99MJ: m.EnergyP99MJ,
			TickP50Ms:   gw.TickQuantileMs(0.50),
			TickP99Ms:   gw.TickQuantileMs(0.99),
		})
	})
	return mux
}

// statView is the JSON shape of one user's stats.
type statView struct {
	ID              int     `json:"id"`
	SentKB          float64 `json:"sent_kb"`
	QueuedKB        float64 `json:"queued_kb"`
	BufferSec       float64 `json:"buffer_sec"`
	RebufferSec     float64 `json:"rebuffer_sec"`
	Done            bool    `json:"done"`
	Detached        bool    `json:"detached"`
	DetachReason    string  `json:"detach_reason"`
	TransientErrors int     `json:"transient_errors"`
	MissedSlots     int     `json:"missed_slots"`
	TransEnergyMJ   float64 `json:"trans_energy_mj"`
	TailEnergyMJ    float64 `json:"tail_energy_mj"`
}

func toView(st Stats) statView {
	return statView{
		ID:              st.ID,
		SentKB:          float64(st.SentKB),
		QueuedKB:        float64(st.QueuedKB),
		BufferSec:       float64(st.BufferSec),
		RebufferSec:     float64(st.RebufferSec),
		Done:            st.Done,
		Detached:        st.Detached,
		DetachReason:    string(st.DetachReason),
		TransientErrors: st.TransientErrors,
		MissedSlots:     st.MissedSlots,
		TransEnergyMJ:   float64(st.TransEnergy),
		TailEnergyMJ:    float64(st.TailEnergy),
	}
}

type summaryView struct {
	Slot        int     `json:"slot"`
	Users       int     `json:"users"`
	Detached    int     `json:"detached"`
	AllDone     bool    `json:"all_done"`
	SentKB      float64 `json:"sent_kb"`
	EnergyMJ    float64 `json:"energy_mj"`
	RebufferSec float64 `json:"rebuffer_sec"`
	BypassKB    float64 `json:"bypass_kb"`
	Scheduler   string  `json:"scheduler"`
}

// diagView is the JSON shape of the /diag endpoint.
type diagView struct {
	Slot            int     `json:"slot"`
	Draining        bool    `json:"draining"`
	TransientErrors int     `json:"transient_errors"`
	FatalErrors     int     `json:"fatal_errors"`
	MissedDeadlines int     `json:"missed_deadlines"`
	StaleSlots      int     `json:"stale_slots"`
	Reattaches      int     `json:"reattaches"`
	BreakerOpens    int     `json:"breaker_opens"`
	StaleDetaches   int     `json:"stale_detaches"`
	DegradedSlots   int     `json:"degraded_slots"`
	Admitted        int     `json:"admitted"`
	Rejected        int     `json:"rejected"`
	Shed            int     `json:"shed"`
	Drained         int     `json:"drained"`
	TickP50Ms       float64 `json:"tick_p50_ms"`
	TickP99Ms       float64 `json:"tick_p99_ms"`
}

// metricsView is the JSON shape of the /metrics endpoint.
type metricsView struct {
	Slot        int     `json:"slot"`
	EndedWindow int     `json:"sessions_ended_window"`
	EndedTotal  int     `json:"sessions_ended_total"`
	RebufP50Sec float64 `json:"rebuffer_p50_sec"`
	RebufP99Sec float64 `json:"rebuffer_p99_sec"`
	EnergyP50MJ float64 `json:"energy_p50_mj"`
	EnergyP99MJ float64 `json:"energy_p99_mj"`
	TickP50Ms   float64 `json:"tick_p50_ms"`
	TickP99Ms   float64 `json:"tick_p99_ms"`
}

func allStats(gw *Gateway) []statView {
	var out []statView
	for id := 0; ; id++ {
		st, err := gw.StatsFor(id)
		if err != nil {
			break
		}
		out = append(out, toView(st))
	}
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
