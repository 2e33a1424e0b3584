package main

import (
	"time"

	"spybox/pkg/spybox"
)

type layerMetric struct{ name, unit string }

// perLayerMetrics is every metric a traced run prints. A metric that
// the workload does not reach, or that saw no samples, reads -1.
var perLayerMetrics = func() []layerMetric {
	ms := func(names ...string) []layerMetric {
		var out []layerMetric
		for _, n := range names {
			out = append(out, layerMetric{n, "ms"})
		}
		return out
	}
	count := func(names ...string) []layerMetric {
		var out []layerMetric
		for _, n := range names {
			out = append(out, layerMetric{n, "count"})
		}
		return out
	}
	var l []layerMetric
	l = append(l, ms("spybox.open_ms")...)
	l = append(l, count("expt.trials")...)
	l = append(l, ms("expt.trial_ms_p50", "expt.trial_ms_max")...)
	l = append(l, layerMetric{"expt.trial_busy_s", "s"}, layerMetric{"expt.trial_wait_s", "s"},
		layerMetric{"expt.tail_s", "s"}, layerMetric{"expt.pool_util", "ratio"})
	l = append(l, ms("report.encode_ms")...)
	l = append(l, layerMetric{"report.bytes", "bytes"})
	l = append(l, ms("sim.new_machine_ms", "sim.reset_ms", "sim.simulated_ms")...)
	l = append(l, ms("core.characterize_ms", "core.discover_ms", "core.align_ms", "core.transmit_ms")...)
	l = append(l, layerMetric{"core.transmit_us_per_bit", "us"})
	l = append(l, count("core.bits", "core.bit_errors",
		"l2cache.accesses", "l2cache.misses", "l2cache.evictions")...)
	l = append(l, layerMetric{"l2cache.miss_ratio", "ratio"}, layerMetric{"l2cache.host_ns_per_access", "ns"})
	l = append(l, count("hbm.reads", "hbm.row_hits", "nvlink.transactions")...)
	for _, op := range storeOps {
		l = append(l, ms("service.store_ms_p50."+op, "service.store_ms_p95."+op)...)
	}
	l = append(l, count("service.store_ops")...)
	for _, r := range httpRoutes {
		l = append(l, ms("service.http_ms_p50."+r)...)
	}
	l = append(l, count("service.polls_per_job")...)
	l = append(l, ms("service.queue_ms_p50", "service.exec_ms_p50", "service.notify_ms_p50")...)
	l = append(l, layerMetric{"service.cache_hit_ratio", "ratio"}, layerMetric{"service.jobs_per_s", "1/s"})
	l = append(l, ms("service.job_ms_p50", "service.job_ms_p95", "service.hit_ms_p50", "service.miss_ms_p50")...)
	for _, f := range foldLayers {
		l = append(l, layerMetric{"self_pct." + f, "%"})
	}
	l = append(l, count("profile.samples")...)
	l = append(l, layerMetric{"trace_overhead_pct", "%"}, layerMetric{"failed_ratio", "ratio"})
	return l
}()

var perLayerUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range perLayerMetrics {
		m[d.name] = d.unit
	}
	return m
}()

// summarize turns a traced run's collected values into per-layer
// metrics: per-pass values by their median over passes, pooled
// samples by their median or tail percentile.
func summarize(tr *trace) map[string]float64 {
	out := map[string]float64{}
	for k, xs := range tr.perPass {
		out[k] = median(xs)
	}
	p50 := func(name, from string) {
		if xs, ok := tr.samples[from]; ok {
			out[name] = median(xs)
		}
	}
	p95 := func(name, from string) {
		if xs, ok := tr.samples[from]; ok {
			out[name], _ = tail(xs, 95)
		}
	}
	for _, op := range storeOps {
		p50("service.store_ms_p50."+op, "service.store_ms."+op)
		p95("service.store_ms_p95."+op, "service.store_ms."+op)
	}
	for _, r := range httpRoutes {
		p50("service.http_ms_p50."+r, "service.http_ms."+r)
	}
	for _, s := range []string{"queue", "exec", "notify", "job", "hit", "miss"} {
		p50("service."+s+"_ms_p50", "service."+s+"_ms")
	}
	p95("service.job_ms_p95", "service.job_ms")
	return out
}

// sampleCounts reports how many samples each pooled figure rests on.
func sampleCounts(tr *trace) map[string]int {
	out := map[string]int{}
	for k, xs := range tr.samples {
		out[k] = len(xs)
	}
	return out
}

// probeRepeats is how many machines probeSim builds and resets.
const probeRepeats = 3

// probeSim times the simulator's machine build and Machine.Reset on
// the paper's box, the per-trial cost the experiment runner pays.
func probeSim(seed uint64, tr *trace) error {
	prof, err := spybox.LookupProfile("p100-dgx1")
	if err != nil {
		return err
	}
	var build, reset []float64
	for i := 0; i < probeRepeats; i++ {
		t0 := time.Now()
		m, err := spybox.NewMachine(spybox.MachineOptions{Seed: seed, Profile: &prof})
		if err != nil {
			return err
		}
		t1 := time.Now()
		m.Reset(seed + 1)
		build = append(build, ms(t1.Sub(t0)))
		reset = append(reset, ms(time.Since(t1)))
	}
	tr.pass("sim.new_machine_ms", median(build))
	tr.pass("sim.reset_ms", median(reset))
	return nil
}
