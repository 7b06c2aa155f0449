package main

import (
	"strings"

	"cool/internal/obs"
)

// def describes one reported metric. For a per-layer metric, moves and on
// name the end-to-end metric and the workload it should move; on the other
// workloads the prediction is no change.
type def struct {
	name, unit, better string
	moves, on          string
}

// e2eDefs are the end-to-end metrics, measured with tracing off.
var e2eDefs = []def{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "throughput_ops", unit: "1/s", better: "higher"},
	{name: "p50_us", unit: "us", better: "lower"},
	{name: "goodput_mbps", unit: "Mbit/s", better: "higher"},
	{name: "allocs_per_op", unit: "count", better: "lower"},
	{name: "heap_peak_mb", unit: "MB", better: "lower"},
}

// layerDefs are the per-layer metrics, measured in the traced run.
var layerDefs = []def{
	{"cdr.encode_ns", "ns", "lower", "p50_us", "rpc-small"},
	{"cdr.decode_ns", "ns", "lower", "p50_us", "rpc-small"},
	{"cdr.rung_encode_ns", "ns", "lower", "p50_us", "rpc-small"},
	{"giop.marshal_ns", "ns", "lower", "p50_us", "rpc-small"},
	{"giop.unmarshal_ns", "ns", "lower", "p50_us", "rpc-small"},
	{"giop.allocs_per_msg", "count", "lower", "p50_us", "rpc-small"},
	{"orb.client_pre_ns", "ns", "lower", "p50_us", "rpc-small"},
	{"orb.request_path_us", "us", "lower", "p50_us", "rpc-small"},
	{"orb.servant_ns", "ns", "lower", "p50_us", "rpc-small"},
	{"orb.reply_path_us", "us", "lower", "p50_us", "rpc-small"},
	{"orb.client_post_ns", "ns", "lower", "p50_us", "rpc-small"},
	{"orb.client.flush_batch_mean", "count", "higher", "throughput_ops", "rpc-small"},
	{"orb.server.flush_batch_mean", "count", "higher", "throughput_ops", "rpc-small"},
	{"orb.client.flow_waits", "count", "lower", "p50_us", "rpc-small"},
	{"orb.client.redials", "count", "lower", "throughput_ops", "rpc-small"},
	{"orb.bind_us", "us", "lower", "p50_us", "qos-sessions"},
	{"transport.write_us", "us", "lower", "throughput_ops", "rpc-small"},
	{"transport.frames_per_write", "count", "higher", "throughput_ops", "rpc-small"},
	{"transport.writes_per_op", "count", "lower", "throughput_ops", "rpc-small"},
	{"transport.wire_bytes_per_op", "B", "lower", "goodput_mbps", "qos-bulk"},
	{"transport.dial_us", "us", "lower", "p50_us", "qos-sessions"},
	{"transport.tcp_rtt_us", "us", "lower", "p50_us", "rpc-small"},
	{"qos.negotiate_ns", "ns", "lower", "p50_us", "qos-sessions"},
	{"qos.outcome.ack", "count", "higher", "fail_ratio", "qos-sessions"},
	{"qos.outcome.downgrade", "count", "lower", "fail_ratio", "qos-sessions"},
	{"qos.outcome.nack", "count", "lower", "fail_ratio", "qos-sessions"},
	{"dacapo.connect_us", "us", "lower", "p50_us", "qos-sessions"},
	{"dacapo.accept_us", "us", "lower", "p50_us", "qos-sessions"},
	{"dacapo.close_us", "us", "lower", "throughput_ops", "qos-sessions"},
	{"dacapo.send_self_us", "us", "lower", "goodput_mbps", "qos-bulk"},
	{"dacapo.wire_frames_per_msg", "count", "lower", "goodput_mbps", "qos-bulk"},
	{"dacapo.batch_wire_mean", "count", "higher", "goodput_mbps", "qos-bulk"},
	{"dacapo.admission_rejected", "count", "lower", "fail_ratio", "qos-sessions"},
	{"dacapo.conns_active_end", "count", "lower", "fail_ratio", "qos-sessions"},
	{"modules.xorcipher.ns_per_kib", "ns", "lower", "goodput_mbps", "qos-bulk"},
	{"modules.crc32.ns_per_kib", "ns", "lower", "goodput_mbps", "qos-bulk"},
	{"modules.window.ns_per_kib", "ns", "lower", "goodput_mbps", "qos-bulk"},
	{"runtime.cpu_busy_pct", "%", "higher", "throughput_ops", "rpc-small"},
	{"runtime.cpu_us_per_op", "us", "lower", "throughput_ops", "rpc-small"},
	{"runtime.gc_per_kop", "count", "lower", "p50_us", "rpc-small"},
	{"runtime.goroutines_peak", "count", "lower", "throughput_ops", "rpc-small"},
	{"bench.p99_us", "us", "lower", "p50_us", "qos-bulk"},
	{"bench.gen_late_p99_us", "us", "lower", "p50_us", "rpc-small"},
	{"bench.trace_overhead_pct", "%", "lower", "throughput_ops", "rpc-small"},
}

// orbCounters reports the ORB's own counters over a measured phase (cd
// client and sd server snapshot deltas).
func orbCounters(out *outcome, cd, sd obs.Snapshot) {
	out.layer["orb.client.flush_batch_mean"] = metric{flushMean(cd, "orb.client.flush_batch"), "count", 1}
	out.layer["orb.server.flush_batch_mean"] = metric{flushMean(sd, "orb.server.flush_batch"), "count", 1}
	waits := uint64(0)
	if h, ok := cd.Histogram("orb.client.flow_control_wait_us"); ok {
		waits = h.Count
	}
	out.layer["orb.client.flow_waits"] = metric{float64(waits), "count", 1}
	out.layer["orb.client.redials"] = metric{float64(cd.Counter("orb.client.redials")), "count", 1}
	out.path.clientFlushMean = out.layer["orb.client.flush_batch_mean"].Value
	out.path.serverFlushMean = out.layer["orb.server.flush_batch_mean"].Value
}

// wireCount is a reading of a decorated wire transport's counters.
type wireCount struct{ writes, frames, bytes, ns int64 }

func wireCounts(st *wireStats) wireCount {
	if st == nil {
		return wireCount{}
	}
	return wireCount{st.writes.Load(), st.frames.Load(), st.write.bytes.Load(), st.write.ns.Load()}
}

// wireLayer reports the transport layer over a measured phase of ops
// completed operations, from the reading w0 taken at its start.
func wireLayer(out *outcome, st *wireStats, w0 wireCount, ops int64) {
	if st == nil {
		return
	}
	w := wireCounts(st)
	writes := float64(w.writes - w0.writes)
	out.layer["transport.write_us"] = metric{ratio(float64(w.ns-w0.ns), writes) / 1e3, "us", int(writes)}
	out.layer["transport.frames_per_write"] = metric{ratio(float64(w.frames-w0.frames), writes), "count", int(writes)}
	out.layer["transport.writes_per_op"] = metric{ratio(writes, float64(ops)), "count", int(ops)}
	out.layer["transport.wire_bytes_per_op"] = metric{ratio(float64(w.bytes-w0.bytes), float64(ops)), "B", int(ops)}
	out.layer["transport.dial_us"] = metric{st.dial.nsPer() / 1e3, "us", int(st.dial.n.Load())}
}

// stageLayer reports the request stages of the traced run: the mean of
// each stage over every complete request, so the means tile the mean
// invoke duration.
func stageLayer(out *outcome, tr *tracer) {
	n := tr.complete.Load()
	if n == 0 {
		out.problem("traced run recorded no complete request")
		return
	}
	for s, name := range stageNames {
		v, unit := float64(tr.stageNs[s].Load())/float64(n), "ns"
		switch name {
		case "orb.request_path", "orb.reply_path":
			v, unit = v/1e3, "us"
			name += "_us"
		default:
			name += "_ns"
		}
		out.layer[name] = metric{v, unit, int(n)}
	}
}

// modulesLayer reports each module's down+up self time per KiB handled.
func modulesLayer(out *outcome, tr *tracer) {
	for _, name := range []string{"xorcipher", "crc32", "window"} {
		a := tr.acc("modules." + name)
		kib := float64(a.bytes.Load()) / 1024
		out.layer["modules."+name+".ns_per_kib"] = metric{ratio(float64(a.ns.Load()), kib), "ns", int(a.n.Load())}
	}
}

// dacapoLayer reports the Da CaPo layer of a client and server side over a
// measured phase; msgs0 and wire0 are the client's counters at its start.
func dacapoLayer(out *outcome, cli, srv *side, cd, sd obs.Snapshot, msgs0 int64, wire0 wireCount) {
	if cli.dst != nil {
		closes := cli.dst.close.n.Load() + srv.dst.close.n.Load()
		closeNs := cli.dst.close.ns.Load() + srv.dst.close.ns.Load()
		out.layer["dacapo.connect_us"] = metric{cli.dst.connect.nsPer() / 1e3, "us", int(cli.dst.connect.n.Load())}
		out.layer["dacapo.accept_us"] = metric{srv.dst.accept.nsPer() / 1e3, "us", int(srv.dst.accept.n.Load())}
		out.layer["dacapo.close_us"] = metric{ratio(float64(closeNs), float64(closes)) / 1e3, "us", int(closes)}
		out.layer["dacapo.send_self_us"] = metric{cli.dst.send.nsPer() / 1e3, "us", int(cli.dst.send.n.Load())}
		msgs := cli.dst.msgs.Load() - msgs0
		frames := wireCounts(cli.wire).frames - wire0.frames
		out.layer["dacapo.wire_frames_per_msg"] = metric{ratio(float64(frames), float64(msgs)), "count", int(msgs)}
	}
	if h, ok := cd.Histogram("dacapo.batch.size{stage=wire}"); ok {
		out.layer["dacapo.batch_wire_mean"] = metric{ratio(float64(h.Sum), float64(h.Count)), "count", int(h.Count)}
	}
	out.layer["dacapo.admission_rejected"] = metric{float64(rejected(sd)), "count", 1}
}

// rejected sums the Da CaPo admission rejections of every reason.
func rejected(s obs.Snapshot) uint64 {
	var n uint64
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, "dacapo.admission.rejected{") {
			n += c.Value
		}
	}
	return n
}

// stacks returns the Da CaPo stacks selected in s, by name.
func stacks(s obs.Snapshot) map[string]uint64 {
	m := map[string]uint64{}
	for _, c := range s.Counters {
		if rest, ok := strings.CutPrefix(c.Name, "dacapo.stack.selected{stack="); ok && c.Value > 0 {
			m[strings.TrimSuffix(rest, "}")] += c.Value
		}
	}
	return m
}
