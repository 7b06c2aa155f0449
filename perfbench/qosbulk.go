package main

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cool/internal/orb"
	"cool/internal/qos"
)

// qos-bulk: Da CaPo over loopback TCP, declared over the lossy WAN
// profile, so Reliable maps to window+crc32 (plus xorcipher when
// Encrypted). Closed-loop callers put 16–64 KiB payloads; each reply is
// the payload's CRC-32, checked by the client.

// bulkSet returns the qos-bulk requirement: reliable, and encrypted when
// enc is set.
func bulkSet(enc bool) qos.Set {
	s := qos.Set{
		{Type: qos.Reliability, Request: 0, Max: 0, Min: 0},
		{Type: qos.Ordering, Request: 1, Max: 1, Min: 1},
	}
	if enc {
		s = append(s, qos.Parameter{Type: qos.Confidentiality, Request: 1, Max: 1, Min: 1})
	}
	return s
}

type bulkSystem struct {
	srv, cli *side
	objs     []*orb.Object
	tags     atomic.Uint32
}

func (s *bulkSystem) shutdown() {
	s.cli.o.Shutdown()
	s.srv.o.Shutdown()
}

// bulkBody is one pooled payload and its digest.
type bulkBody struct {
	b   []byte
	sum uint32
}

// startBulk builds both sides and binds every caller with a first put
// each; set-up time ends when it returns.
func startBulk(tr *tracer, enc []bool, first bulkBody) (*bulkSystem, error) {
	s := &bulkSystem{srv: newSide("bulk-server", tr, true, 0, nil), cli: newSide("bulk-client", tr, true, 0, nil)}
	if _, err := s.srv.o.ListenOn("dacapo", "127.0.0.1:0"); err != nil {
		s.shutdown()
		return nil, err
	}
	ref, err := s.srv.o.RegisterServant(&servant{tr: tr}, orb.WithCapability(qos.Unconstrained()))
	if err != nil {
		s.shutdown()
		return nil, err
	}
	for _, e := range enc {
		obj := s.cli.o.Resolve(ref)
		if err := obj.SetQoSParameter(bulkSet(e)); err != nil {
			s.shutdown()
			return nil, err
		}
		s.objs = append(s.objs, obj)
	}
	for _, obj := range s.objs {
		c := newCall(tr)
		c.put, c.body, c.sum, c.tag = true, first.b, first.sum, s.tags.Add(1)
		if err := c.invoke(obj, "put"); err != nil {
			s.shutdown()
			return nil, fmt.Errorf("first put: %w", err)
		}
		tr.bound(c.tag)
	}
	return s, nil
}

func runQoSBulk(o opts) *outcome {
	out := newOutcome()
	var bodies []bulkBody
	for _, b := range bulkBodies(o.seed) {
		bodies = append(bodies, bulkBody{b, crc32.ChecksumIEEE(b)})
	}
	enc := bulkQoS(o.seed, o.callers)
	base := runtime.NumGoroutine()

	first := bodies[medianSized(len(bodies), func(i int) int { return len(bodies[i].b) })]
	sys, err := timeSetups(out, o.setups, func() (*bulkSystem, error) { return startBulk(o.tr, enc, first) }, (*bulkSystem).shutdown)
	if err != nil {
		out.problem("qos-bulk set-up: %v", err)
		return out
	}
	sys.bindOutcome(out, enc)

	out.tally("qos-bulk warm-up", sys.loop(o, bodies, 300*time.Millisecond))

	cb := sys.cli.o.Metrics().Snapshot()
	sb := sys.srv.o.Metrics().Snapshot()
	wire0 := wireCounts(sys.cli.wire)
	var msgs0 int64
	if sys.cli.dst != nil {
		msgs0 = sys.cli.dst.msgs.Load()
	}
	m := startMeasure()
	r := sys.loop(o, bodies, o.dur)
	m.finish(out, r.done)
	out.tally("qos-bulk", r)
	r.lat.report(out)
	lateLayer(out, r.late)

	csnap, ssnap := sys.cli.o.Metrics().Snapshot(), sys.srv.o.Metrics().Snapshot()
	cd, sd := csnap.Delta(cb), ssnap.Delta(sb)
	orbCounters(out, cd, sd)
	wireLayer(out, sys.cli.wire, wire0, r.done)
	dacapoLayer(out, sys.cli, sys.srv, cd, ssnap, msgs0, wire0)
	out.path.stacks = stacks(ssnap)
	out.path.inline = ssnap.Gauge("dacapo.segments.inline")
	out.path.threaded = ssnap.Gauge("dacapo.segments.threaded")

	sys.cli.o.Shutdown()
	checkQuiet(out, sys.srv, 0)
	sys.srv.o.Shutdown()
	checkGoroutines(out, base)
	return out
}

// bindOutcome checks that every caller's binding was granted exactly what
// it asked for.
func (s *bulkSystem) bindOutcome(out *outcome, enc []bool) {
	for i, obj := range s.objs {
		if g := obj.GrantedQoS(); !g.Equal(bulkSet(enc[i])) {
			out.problem("qos-bulk caller %d granted %v, asked %v", i, g, bulkSet(enc[i]))
		}
	}
	snap := s.cli.o.Metrics().Snapshot()
	out.layer["qos.outcome.ack"] = metric{float64(snap.Counter("orb.client.qos{result=ack}")), "count", 1}
	out.layer["qos.outcome.downgrade"] = metric{float64(snap.Counter("orb.client.qos{result=downgrade}")), "count", 1}
	out.layer["qos.outcome.nack"] = metric{float64(snap.Counter("orb.client.qos{result=bind_failure}") + snap.Counter("orb.client.qos{result=nack}")), "count", 1}
}

// loop runs one closed-loop caller per binding for d. A caller's next put
// follows its previous reply; the harness's own turnaround between the
// two is reported as generator lateness. Calls are tallied by the window
// they complete in.
func (s *bulkSystem) loop(o opts, bodies []bulkBody, d time.Duration) loopResult {
	start := time.Now()
	deadline := start.Add(d)
	lat, late := newWindows(start, d), newWindows(start, d)
	results := make([]loopResult, len(s.objs))
	var wg sync.WaitGroup
	for w, obj := range s.objs {
		wg.Add(1)
		go func(w int, obj *orb.Object) {
			defer wg.Done()
			r := &results[w]
			c := newCall(o.tr)
			c.put = true
			last := time.Time{}
			for k := w * 13; time.Now().Before(deadline); k++ {
				b := bodies[k%len(bodies)]
				c.body, c.sum, c.tag = b.b, b.sum, s.tags.Add(1)
				t0 := time.Now()
				if !last.IsZero() {
					late.add(t0, float64(t0.Sub(last).Nanoseconds())/1e3, 0)
				}
				r.attempted++
				err := c.invoke(obj, "put")
				last = time.Now()
				if err != nil {
					r.fail(err)
					continue
				}
				r.done++
				r.bytes += int64(len(b.b))
				lat.add(last, float64(last.Sub(t0).Nanoseconds())/1e3, len(b.b))
			}
		}(w, obj)
	}
	wg.Wait()
	r := loopResult{lat: lat, late: late}
	for w := range results {
		r.add(results[w])
	}
	return r
}
