package dacapo

import (
	"sync"
	"sync/atomic"

	"cool/internal/obs"
)

// batchObserver is an atomically swappable histogram slot: runtimes start
// uninstrumented (nil) and the monitor arms the slot after bring-up,
// without racing the writers.
type batchObserver = atomic.Pointer[obs.Histogram]

// batchSizeBuckets are the bounds for the wire-flush batch-size
// histogram: powers of two.
func batchSizeBuckets() []uint64 {
	return []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}

// segCounts remembers a runtime's segment split for gauge bookkeeping.
// The dacapo.segments.threaded gauge keeps its name but counts locked
// (blocking) stages.
type segCounts struct {
	inline int
	locked int
}

// monitor is a Manager's observability wiring: admission counters and
// events, the active-connection and segment gauges, per-stage batch-size
// histograms, reconfiguration counters, and a snapshot-time collector
// aggregating per-module packet/byte stats over live and closed runtimes.
// A nil *monitor (uninstrumented manager) is valid; every method no-ops on
// it.
type monitor struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	accepted    *obs.Counter
	active      *obs.Gauge
	segInline   *obs.Gauge
	segThreaded *obs.Gauge

	mu     sync.Mutex
	live   map[*Runtime]segCounts
	totals map[string]ModuleStats // closed-runtime stats, keyed by module name
	// closed-runtime reconfiguration totals (started, completed, aborted)
	rcClosed [3]uint64
}

// Instrument connects the manager to an ORB's metric registry and tracer.
// Call it once, before traffic (typically right after NewManager); the
// manager then reports admission decisions, the active-connection gauge,
// selected module stacks, and live per-module counters through them.
func (m *Manager) Instrument(reg *obs.Registry, tracer *obs.Tracer) {
	mon := &monitor{
		reg:         reg,
		tracer:      tracer,
		accepted:    reg.Counter("dacapo.admission.accepted"),
		active:      reg.Gauge("dacapo.conns.active"),
		segInline:   reg.Gauge("dacapo.segments.inline"),
		segThreaded: reg.Gauge("dacapo.segments.threaded"),
		live:        make(map[*Runtime]segCounts),
		totals:      make(map[string]ModuleStats),
	}
	reg.RegisterCollector(mon.collect)
	m.mon = mon
}

// connected records a successful admission (side is "dial" or "accept"):
// the accepted counter, the per-stack counter, the active and segment
// gauges, the live runtime for the module-stat collector, batch-size
// instrumentation, and an admission event.
func (mon *monitor) connected(rt *Runtime, side string) {
	if mon == nil || rt == nil {
		return
	}
	spec := rt.Spec().String()
	mon.accepted.Inc()
	mon.reg.Counter("dacapo.stack.selected{stack=" + spec + "}").Inc()
	mon.active.Inc()
	seg := segCounts{}
	seg.inline, seg.locked = rt.Segments()
	mon.segInline.Add(int64(seg.inline))
	mon.segThreaded.Add(int64(seg.locked))
	mon.mu.Lock()
	mon.live[rt] = seg
	mon.mu.Unlock()
	mon.instrumentBatches(rt)
	mon.tracer.Emit(obs.Event{
		Kind:    "dacapo.admission",
		Name:    spec,
		Outcome: "accept",
		Detail:  side,
	})
}

// instrumentBatches arms the runtime's wire-flush batch-size histogram.
func (mon *monitor) instrumentBatches(rt *Runtime) {
	rt.wireHist.Store(mon.reg.Histogram("dacapo.batch.size{stage=wire}", batchSizeBuckets()))
}

// rejected records a failed admission under a coarse reason: "qos" (no
// feasible configuration / negotiation failure), "budget" (resource
// manager refused), "spec" (peer proposed an invalid configuration),
// "peer" (responder rejected our proposal), "transport" (underlying
// connection failed).
func (mon *monitor) rejected(reason string, err error) {
	if mon == nil {
		return
	}
	mon.reg.Counter("dacapo.admission.rejected{reason=" + reason + "}").Inc()
	detail := ""
	if err != nil && mon.tracer.Enabled() {
		detail = err.Error()
	}
	mon.tracer.Emit(obs.Event{
		Kind:    "dacapo.admission",
		Name:    reason,
		Outcome: "reject",
		Detail:  detail,
	})
}

// untrack retires a runtime: its final module stats and reconfiguration
// counts fold into the closed totals so collector output stays monotonic
// across connection churn.
func (mon *monitor) untrack(rt *Runtime) {
	if mon == nil || rt == nil {
		return
	}
	mon.mu.Lock()
	seg, ok := mon.live[rt]
	if !ok {
		mon.mu.Unlock()
		return
	}
	delete(mon.live, rt)
	for _, s := range rt.Stats() {
		t := mon.totals[s.Name]
		t.Name = s.Name
		t.DownPackets += s.DownPackets
		t.DownBytes += s.DownBytes
		t.UpPackets += s.UpPackets
		t.UpBytes += s.UpBytes
		t.Drops += s.Drops
		mon.totals[s.Name] = t
	}
	started, completed, aborted := rt.ReconfigCounts()
	mon.rcClosed[0] += started
	mon.rcClosed[1] += completed
	mon.rcClosed[2] += aborted
	mon.mu.Unlock()
	mon.active.Dec()
	mon.segInline.Add(-int64(seg.inline))
	mon.segThreaded.Add(-int64(seg.locked))
}

// collect emits the per-module packet/byte counters (closed-runtime totals
// plus a live snapshot of every open runtime) and the reconfiguration
// counters.
func (mon *monitor) collect(emit func(name string, value uint64)) {
	mon.mu.Lock()
	agg := make(map[string]ModuleStats, len(mon.totals))
	for name, s := range mon.totals {
		agg[name] = s
	}
	rcStarted, rcCompleted, rcAborted := mon.rcClosed[0], mon.rcClosed[1], mon.rcClosed[2]
	for rt := range mon.live {
		for _, s := range rt.Stats() {
			t := agg[s.Name]
			t.Name = s.Name
			t.DownPackets += s.DownPackets
			t.DownBytes += s.DownBytes
			t.UpPackets += s.UpPackets
			t.UpBytes += s.UpBytes
			t.Drops += s.Drops
			agg[s.Name] = t
		}
		s, c, a := rt.ReconfigCounts()
		rcStarted += s
		rcCompleted += c
		rcAborted += a
	}
	mon.mu.Unlock()
	for name, s := range agg {
		label := "{module=" + name + "}"
		emit("dacapo.module.down_packets"+label, s.DownPackets)
		emit("dacapo.module.down_bytes"+label, s.DownBytes)
		emit("dacapo.module.up_packets"+label, s.UpPackets)
		emit("dacapo.module.up_bytes"+label, s.UpBytes)
		emit("dacapo.module.drops"+label, s.Drops)
	}
	emit("dacapo.reconfig.started", rcStarted)
	emit("dacapo.reconfig.completed", rcCompleted)
	emit("dacapo.reconfig.aborted", rcAborted)
}
