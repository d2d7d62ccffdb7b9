package main

import "fmt"

// spec names a metric of the final JSON line. A metric whose layer a
// workload does not run reads 0 there; only counts and shares may do
// that, so that every time this benchmark prints is measured on every
// workload.
type spec struct {
	name     string
	unit     string
	zeroIfUn bool // 0 where the workload does not exercise the layer
}

// endToEnd lists the untraced run's metrics, in BENCHMARK.json order.
var endToEnd = []spec{
	{"setup_s", "s", false},
	{"op_p50_ms", "ms", false},
	{"cpu_ms_per_op", "ms", false},
	{"peak_rss_mb", "MB", false},
}

// perLayer lists the traced run's metrics, in BENCHMARK.json order.
var perLayer = []spec{
	{"sim.rounds", "count", true},
	{"sim.messages", "count", true},
	{"sim.bits", "count", true},
	{"sim.engine_share", "1", true},
	{"linial.share", "1", true},
	{"twosweep.share", "1", true},
	{"deltaplus1.self_share", "1", true},
	{"deltaplus1.oldc_calls", "count", true},
	{"deltaplus1.scales", "count", true},
	{"deltaplus1.bootstrap_rounds", "count", true},
	{"deltaplus1.split_rounds", "count", true},
	{"deltaplus1.class_rounds", "count", true},
	{"coloring.validate_ms", "ms", false},
	{"coloring.audit_ms", "ms", false},
	{"compact.count", "count", true},
	{"compact.swap_share", "1", true},
	{"repair.scanned_per_update", "1", true},
	{"repair.recolored_per_update", "1", true},
	{"repair.rounds_max", "count", true},
	{"service.dirty_per_update", "1", true},
	{"service.hard_per_update", "1", true},
	{"http.client_share", "1", true},
	{"http.read_handler_share", "1", true},
	{"ingest.wait_share", "1", true},
	{"ingest.depth_max", "count", true},
	{"ingest.rejected", "count", true},
	{"ingest.expired", "count", true},
	{"durable.apply_share", "1", true},
	{"checkpoint.count", "count", true},
	{"wal.bytes_per_update", "B", true},
	{"recovery.replayed_ops", "count", true},
	{"runtime.alloc_mb_per_op", "MB", false},
	{"runtime.gc_cycles", "count", true},
	{"runtime.gc_pause_ms", "ms", false},
	{"runtime.heap_live_mb", "MB", false},
	{"host.steal_share", "1", true},
	{"trace.overhead_op_p50_ms", "ms", false},
	{"trace.overhead_cpu_ms_per_op", "ms", false},
}

// exactCounts are the solve counts a seed fixes bit for bit.
var exactCounts = []string{
	"sim.rounds", "sim.messages", "sim.bits",
	"deltaplus1.oldc_calls", "deltaplus1.scales", "deltaplus1.bootstrap_rounds",
	"deltaplus1.split_rounds", "deltaplus1.class_rounds",
}

// complete orders set by specs, fills the zero of every layer the
// workload does not run, and fails the gate on a metric missing or
// unknown — a benchmark bug, never a program fault.
func complete(r *report, set []metric, specs []spec) []metric {
	have := map[string]metric{}
	for _, m := range set {
		have[m.name] = m
	}
	var out []metric
	for _, s := range specs {
		m, ok := have[s.name]
		switch {
		case ok && m.unit != s.unit:
			r.fail("metric %s has unit %s, want %s", s.name, m.unit, s.unit)
		case !ok && !s.zeroIfUn:
			r.fail("metric %s was not measured", s.name)
		case !ok:
			m = metric{s.name, s.unit, 0}
		}
		delete(have, s.name)
		out = append(out, m)
	}
	for name := range have {
		r.fail("metric %s is not in the metric list", name)
	}
	return out
}

// solveLayers derives the solve workloads' layer split from the spans:
// shares of the summed op time for the JSON line, medians per op for
// the report.
func solveLayers(r *report) {
	if r.tr == nil {
		return
	}
	lt := r.tr.summarize()
	op := sum(lt.dur["op"])
	share := func(xs []float64) float64 { return sum(xs) / op }
	r.layer("sim.engine_share", "1", share(lt.dur["sim.round"]))
	r.layer("linial.share", "1", share(lt.dur["linial.ColorFromIDs"]))
	r.layer("twosweep.share", "1", share(lt.dur["twosweep.SolveFast"]))
	r.layer("deltaplus1.self_share", "1", share(lt.self["deltaplus1.Solve"]))
	r.note("layer times per solve (p50): sim.round_us_p50 %.3f over %d rounds, linial.ms %.4f, twosweep.ms %.4f, deltaplus1.self_ms %.4f",
		1e3*median(lt.dur["sim.round"]), len(lt.dur["sim.round"]),
		median(lt.dur["linial.ColorFromIDs"]), median(lt.dur["twosweep.SolveFast"]), median(lt.self["deltaplus1.Solve"]))
}

// serveLayers derives serve's write-path split (client and transport,
// queue wait and decoding in the handler, durable apply) and read-path
// split from the spans.
func serveLayers(r *report) {
	if r.tr == nil {
		return
	}
	lt := r.tr.summarize()
	write := sum(lt.dur["http.client.write"])
	r.layer("http.client_share", "1", sum(lt.self["http.client.write"])/write)
	r.layer("ingest.wait_share", "1", sum(lt.self["http.handler.write"])/write)
	r.layer("durable.apply_share", "1", sum(lt.dur["durable.ApplyBatch"])/write)
	r.layer("http.read_handler_share", "1", sum(lt.dur["http.handler.read"])/sum(lt.dur["http.client.read"]))
	pq := func(name string, self bool, scale float64) string {
		xs := lt.dur[name]
		if self {
			xs = lt.self[name]
		}
		ys := append([]float64(nil), xs...)
		return fmt.Sprintf("p50 %.4f p99 %.4f", scale*quantile(ys, 0.5), scale*quantile(ys, 0.99))
	}
	r.note("layer times: http.write_handler_ms %s; http.read_handler_us %s; http.client_ms %s",
		pq("http.handler.write", false, 1), pq("http.handler.read", false, 1e3), pq("http.client.write", true, 1))
	r.note("layer times: ingest.wait_ms %s; durable.apply_ms %s", pq("http.handler.write", true, 1), pq("durable.ApplyBatch", false, 1))
	r.note("layer times: recovery.load_ms %.4f, recovery.replay_ms %.4f", sum(lt.dur["recovery.load"]), sum(lt.dur["recovery.replay"]))
}
