package experiments

import (
	"fmt"

	"jointstream/internal/cell"
	"jointstream/internal/metrics"
)

// Claim is one of the paper's quantitative headline claims, checked
// against a measured reproduction.
type Claim struct {
	// ID names the claim.
	ID string
	// Statement is the paper's wording.
	Statement string
	// PaperThreshold is the claimed minimum reduction (fraction).
	PaperThreshold float64
	// Measured is the reproduced reduction (fraction; negative means the
	// reproduction moved the other way).
	Measured float64
	// Met reports Measured ≥ PaperThreshold.
	Met bool
	// Context describes the scenario the measurement comes from.
	Context string
}

// Claims evaluates the paper's abstract/§VI headline claims at the largest
// user count of the sweep (the paper's most contended scenario):
//
//  1. "RTMA is able to reduce at least 68% rebuffering time ... compared
//     with Throttling, ON-OFF and the default strategy."
//  2. "EMA reduces at least 48% energy consumption compared with SALSA and
//     the default strategy."
//  3. "EMA achieves more than 27% energy reduction compared with
//     EStreamer."
func (r *Runner) Claims() ([]Claim, error) {
	n := r.opts.UserCounts[len(r.opts.UserCounts)-1]
	sc := scenario{users: n, avgSizeMB: r.opts.CDFAvgSizeMB}
	ctx := fmt.Sprintf("N=%d, avg %.0f MB, seed %d", n, r.opts.CDFAvgSizeMB, r.opts.Seed)

	arms := []arm{defaultArm, rtma("RTMA", 1), throttling, onoff, salsa, estreamer, emaVsEStreamer}
	res := make([]*cell.Result, len(arms))
	for i, a := range arms {
		var err error
		if res[i], _, err = a.run(r, sc); err != nil {
			return nil, err
		}
	}
	def, rt, thr, oo, sal, estr, em := res[0], res[1], res[2], res[3], res[4], res[5], res[6]

	var claims []Claim
	addReduction := func(id, statement string, threshold, baseline, got float64) error {
		red, err := metrics.Reduction(baseline, got)
		if err != nil {
			return fmt.Errorf("experiments: claim %s: %w", id, err)
		}
		claims = append(claims, Claim{
			ID: id, Statement: statement, PaperThreshold: threshold,
			Measured: red, Met: red >= threshold, Context: ctx,
		})
		return nil
	}

	rtmaReb := float64(rt.MeanRebufferPerUser())
	for _, c := range []struct {
		id       string
		baseline float64
		vs       string
	}{
		{"rtma-vs-default", float64(def.MeanRebufferPerUser()), "Default"},
		{"rtma-vs-throttling", float64(thr.MeanRebufferPerUser()), "Throttling"},
		{"rtma-vs-onoff", float64(oo.MeanRebufferPerUser()), "ON-OFF"},
	} {
		stmt := fmt.Sprintf("RTMA reduces at least 68%% rebuffering time vs %s", c.vs)
		if err := addReduction(c.id, stmt, 0.68, c.baseline, rtmaReb); err != nil {
			return nil, err
		}
	}

	emaEnergy := float64(em.MeanEnergyPerUser())
	for _, c := range []struct {
		id        string
		baseline  float64
		vs        string
		threshold float64
	}{
		{"ema-vs-salsa", float64(sal.MeanEnergyPerUser()), "SALSA", 0.48},
		{"ema-vs-default", float64(def.MeanEnergyPerUser()), "Default", 0.48},
		{"ema-vs-estreamer", float64(estr.MeanEnergyPerUser()), "EStreamer", 0.27},
	} {
		stmt := fmt.Sprintf("EMA reduces at least %.0f%% energy vs %s", c.threshold*100, c.vs)
		if err := addReduction(c.id, stmt, c.threshold, c.baseline, emaEnergy); err != nil {
			return nil, err
		}
	}
	return claims, nil
}
