// E1-E4: the reverse-engineering experiments (Fig. 4, Fig. 5,
// Table I, Fig. 7).
package expt

import (
	"spybox/internal/arch"
	"spybox/internal/core"
	"spybox/internal/plot"
	"spybox/internal/sim"
	"spybox/internal/stats"
)

// Fig4 reproduces the timing characterization histogram: four access
// classes (local hit/miss, remote hit/miss over NVLink), their
// cluster centers, and the derived thresholds.
func Fig4(p Params) (*Result, error) {
	m := machineFor(p, sim.Options{Seed: p.Seed})
	accesses := 48
	if p.Scale == Paper {
		accesses = 192
	}
	prof, err := core.CharacterizeTiming(m, trojanGPU, spyGPU, accesses, p.Seed)
	if err != nil {
		return nil, err
	}
	r := newResult("fig4", "Local and remote GPU access time")
	r.Rowf("%d accesses per class; histogram of all %d samples:",
		f("accesses_per_class", accesses), f("total_samples", 4*accesses))
	r.Chart(prof.Histogram.Render(48))
	classes := []struct {
		name    string
		samples []float64
		nominal arch.Cycles
	}{
		{"local L2 hit", prof.LocalHit, arch.NomLocalHit},
		{"local L2 miss (HBM)", prof.LocalMiss, arch.NomLocalMiss},
		{"remote L2 hit (NVLink)", prof.RemoteHit, arch.NomRemoteHit},
		{"remote L2 miss", prof.RemoteMiss, arch.NomRemoteMiss},
	}
	for i, c := range classes {
		s := stats.Summarize(c.samples)
		r.Rowf("%-24s measured mean %6.0f cy (center %6.0f)  [paper cluster ~%d cy]",
			f("class", c.name),
			fu("measured_mean", "cycles", s.Mean),
			fu("center", "cycles", prof.Thresholds.Centers[i]),
			fu("paper_cluster", "cycles", uint64(c.nominal)))
		r.SetMetric("center_"+c.name[:8], "cycles", prof.Thresholds.Centers[i])
	}
	r.Rowf("thresholds: %s", f("thresholds", prof.Thresholds.String()))
	r.SetMetric("local_boundary", "cycles", prof.Thresholds.LocalBoundary)
	r.SetMetric("remote_boundary", "cycles", prof.Thresholds.RemoteBoundary)
	return r, nil
}

// Fig5 reproduces the eviction-set validation sweep on both the local
// and the remote GPU: target re-access latency vs. number of conflict
// lines chased, with the step at the associativity boundary (16).
func Fig5(p Params) (*Result, error) {
	pair, err := setupAttackPair(p, sim.Options{Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	maxLines := 48
	r := newResult("fig5", "Validating the eviction set determination")
	for _, side := range []struct {
		name string
		att  *core.Attacker
	}{{"local", pair.trojan}, {"remote", pair.spy}} {
		groups, err := side.att.DiscoverPageGroups(side.att.Ways())
		if err != nil {
			return nil, err
		}
		big := groups.Groups[0]
		for _, g := range groups.Groups {
			if len(g) > len(big) {
				big = g
			}
		}
		lines := maxLines
		if lines > len(big)-1 {
			lines = len(big) - 1
		}
		points, err := side.att.ValidateEvictionSet(big, lines)
		if err != nil {
			return nil, err
		}
		series := plot.Series{Name: side.name}
		step := -1
		for _, pt := range points {
			series.X = append(series.X, float64(pt.LinesAccessed))
			series.Y = append(series.Y, float64(pt.TargetLat))
			if pt.Evicted && step < 0 {
				step = pt.LinesAccessed
			}
		}
		r.Series = append(r.Series, series)
		r.Rowf("%s GPU: eviction begins at k=%d conflict lines (paper: every 16th access)",
			f("side", side.name), fu("eviction_step", "lines", step))
		r.SetMetric("eviction_step_"+side.name, "lines", float64(step))
	}
	r.Chart(plot.Line(r.Series, 64, 14, "conflict lines accessed", "target access cycles"))
	return r, nil
}

// TableI reproduces the reverse-engineered L2 architecture table from
// pure timing experiments: line size, associativity, set count, total
// size and replacement policy.
func TableI(p Params) (*Result, error) {
	m := machineFor(p, sim.Options{Seed: p.Seed})
	prof, err := core.CharacterizeTiming(m, trojanGPU, spyGPU, 48, p.Seed^0xfeed)
	if err != nil {
		return nil, err
	}
	att, err := core.NewAttacker(m, trojanGPU, trojanGPU, discoveryPages(m.Profile(), p.Scale), prof.Thresholds, p.Seed^0x31)
	if err != nil {
		return nil, err
	}
	groups, err := att.DiscoverPageGroups(att.Ways())
	if err != nil {
		return nil, err
	}
	fresh, err := core.NewAttacker(m, trojanGPU, trojanGPU, 16, prof.Thresholds, p.Seed^0x32)
	if err != nil {
		return nil, err
	}
	// Search associativities up to twice the true value (32 on the
	// P100): the attacker must find the boundary, not assume it.
	geo, err := att.InferGeometry(groups, 2*m.Profile().L2Ways, fresh)
	if err != nil {
		return nil, err
	}
	r := newResult("table1", "L2 cache architecture")
	r.Notef("%-24s %-12s %s", "Cache Attribute", "Measured", "Paper (Table I)")
	r.Rowf("%-24s %-12d %s",
		f("attribute", "L2 cache size"), fu("measured", "bytes", geo.CacheBytes), f("paper", "4 MB"))
	r.Rowf("%-24s %-12d %s",
		f("attribute", "Number of sets"), f("measured", geo.Sets), f("paper", "2048"))
	r.Rowf("%-24s %-12d %s",
		f("attribute", "Cache line size"), fu("measured", "bytes", geo.LineSize), f("paper", "128 B"))
	r.Rowf("%-24s %-12d %s",
		f("attribute", "Cache lines per set"), f("measured", geo.Ways), f("paper", "16"))
	r.Rowf("%-24s %-12s %s",
		f("attribute", "Replacement policy"), f("measured", geo.Policy), f("paper", "LRU"))
	r.SetMetric("sets", "", float64(geo.Sets))
	r.SetMetric("ways", "", float64(geo.Ways))
	r.SetMetric("line_size", "bytes", float64(geo.LineSize))
	r.SetMetric("cache_bytes", "bytes", float64(geo.CacheBytes))
	if geo.Policy == "LRU" {
		r.SetMetric("policy_lru", "", 1)
	}
	return r, nil
}

// Fig7 reproduces the cross-process alignment experiment: one trojan
// eviction set checked against spy candidates; matched candidates
// show elevated average access time, unmatched ones do not.
func Fig7(p Params) (*Result, error) {
	pair, err := setupAttackPair(p, sim.Options{Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	numTrojanSets := 4
	r := newResult("fig7", "Eviction set alignment among multiple processes")
	var matchedAvgs, unmatchedAvgs []float64
	aligned := 0
	for i := 0; i < numTrojanSets; i++ {
		te := pair.trojanSets[i]
		idx, avgs, err := core.AlignSweep(pair.trojan, pair.spy, te, pair.spySets, 3)
		if err != nil {
			return nil, err
		}
		if idx >= 0 {
			aligned++
			matchedAvgs = append(matchedAvgs, avgs[idx])
			for ci, a := range avgs {
				if ci != idx {
					unmatchedAvgs = append(unmatchedAvgs, a)
				}
			}
			// Confirm with the pairwise Algorithm 2 test.
			avg, mapped, err := core.AlignPair(pair.trojan, pair.spy, te, pair.spySets[idx], core.DefaultAlignConfig())
			if err != nil {
				return nil, err
			}
			r.Rowf("trojan set (group %d, offset %3d) -> spy set #%4d: sweep avg %4.0f cy, Alg.2 avg %4.0f cy, mapped=%v",
				f("trojan_group", te.Group), f("trojan_offset", te.Offset), f("spy_set", idx),
				fu("sweep_avg", "cycles", avgs[idx]), fu("alg2_avg", "cycles", avg), f("mapped", mapped))
		} else {
			r.Rowf("trojan set (group %d, offset %3d): NO MATCH FOUND",
				f("trojan_group", te.Group), f("trojan_offset", te.Offset))
		}
	}
	mm, um := stats.Mean(matchedAvgs), stats.Mean(unmatchedAvgs)
	r.Rowf("matched spy sets avg probe: %.0f cy; unmatched: %.0f cy (separation %.2fx)",
		fu("matched_avg", "cycles", mm), fu("unmatched_avg", "cycles", um), f("separation", mm/um))
	r.Rowf("aligned %d/%d trojan sets", f("aligned", aligned), f("trojan_sets", numTrojanSets))
	r.SetMetric("aligned_fraction", "", float64(aligned)/float64(numTrojanSets))
	r.SetMetric("matched_avg_cycles", "cycles", mm)
	r.SetMetric("unmatched_avg_cycles", "cycles", um)
	return r, nil
}
