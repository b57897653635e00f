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
			writeJSON(w, st)
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
			sum.SentKB += float64(st.SentKB)
			sum.EnergyMJ += float64(st.TransEnergy) + float64(st.TailEnergy)
			sum.RebufferSec += float64(st.RebufferSec)
			if st.Detached {
				sum.Detached++
			}
		}
		writeJSON(w, sum)
	})
	mux.HandleFunc("GET /diag", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			Slot     int  `json:"slot"`
			Draining bool `json:"draining"`
			Diag
			TickP50Ms float64 `json:"tick_p50_ms"`
			TickP99Ms float64 `json:"tick_p99_ms"`
		}{gw.Slot(), gw.isDraining(), gw.Diagnostics(), gw.TickQuantileMs(0.50), gw.TickQuantileMs(0.99)})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		m := gw.sessionWindowMetrics()
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

func allStats(gw *Gateway) []Stats {
	var out []Stats
	for id := 0; ; id++ {
		st, err := gw.StatsFor(id)
		if err != nil {
			break
		}
		out = append(out, st)
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
