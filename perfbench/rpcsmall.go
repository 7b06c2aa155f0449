package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cool/internal/orb"
	"cool/internal/qos"
)

// rpc-small: plain tcp, one connection stripe, a seeded mix of GIOP 1.0
// and GIOP 9.9 bindings, 16 B–2 KiB echo payloads, pooled dispatch. An
// open loop of Poisson arrivals at a fixed rate gives latency; a closed
// loop of pipelined deferred calls gives throughput.

// rpcQoS is the GIOP 9.9 binding's requirement: tcp has no QoS machinery,
// and a throughput floor of 0 tolerates that, so the binding is granted
// as a downgrade.
func rpcQoS() qos.Set {
	return qos.Set{{Type: qos.Throughput, Request: 1000, Max: qos.NoLimit, Min: 0}}
}

// rpcWindow is each throughput caller's number of outstanding requests.
const rpcWindow = 16

type rpcSystem struct {
	srv, cli *side
	plain    *orb.Object
	qos      *orb.Object
	tags     atomic.Uint32
}

func (s *rpcSystem) obj(c rpcCall) *orb.Object {
	if c.qos {
		return s.qos
	}
	return s.plain
}

func (s *rpcSystem) shutdown() {
	s.cli.o.Shutdown()
	s.srv.o.Shutdown()
}

// startRPC builds both ORBs and binds both proxies with a first call
// each; set-up time ends when it returns.
func startRPC(tr *tracer, body []byte) (*rpcSystem, error) {
	s := &rpcSystem{srv: newSide("rpc-server", tr, false, 0, nil), cli: newSide("rpc-client", tr, false, 0, nil)}
	if _, err := s.srv.o.ListenOn("tcp", "127.0.0.1:0"); err != nil {
		s.shutdown()
		return nil, err
	}
	ref, err := s.srv.o.RegisterServant(&servant{tr: tr}, orb.WithCapability(qos.Unconstrained()))
	if err != nil {
		s.shutdown()
		return nil, err
	}
	s.plain = s.cli.o.Resolve(ref)
	s.qos = s.cli.o.Resolve(ref)
	if err := s.qos.SetQoSParameter(rpcQoS()); err != nil {
		s.shutdown()
		return nil, err
	}
	for _, obj := range []*orb.Object{s.plain, s.qos} {
		c := newCall(tr)
		c.body, c.tag = body, s.tags.Add(1)
		if err := c.invoke(obj, "echo"); err != nil {
			s.shutdown()
			return nil, fmt.Errorf("first call: %w", err)
		}
		tr.bound(c.tag)
	}
	return s, nil
}

func runRPCSmall(o opts) *outcome {
	out := newOutcome()
	calls := rpcCalls(o.seed)
	base := runtime.NumGoroutine()

	first := calls[medianSized(len(calls), func(i int) int { return len(calls[i].body) })].body
	sys, err := timeSetups(out, o.setups, func() (*rpcSystem, error) { return startRPC(o.tr, first) }, (*rpcSystem).shutdown)
	if err != nil {
		out.problem("rpc-small set-up: %v", err)
		return out
	}
	sys.qosBindOutcome(out)

	third := o.dur / 3
	open := sys.newOpenLoop(o, calls, newSchedule(o.seed, o.rate))
	// Warm both loops briefly so pools and flush paths reach steady state.
	out.tally("rpc-small open-loop warm-up", open.window(300*time.Millisecond))
	out.tally("rpc-small closed-loop warm-up", sys.closedLoop(o, calls, 300*time.Millisecond, o.callers, rpcWindow))

	before := sys.cli.o.Metrics().Snapshot()
	sbefore := sys.srv.o.Metrics().Snapshot()
	wire0 := wireCounts(sys.cli.wire)
	m := startMeasure()
	opened := open.window(third)
	open.stop()
	single := sys.closedLoop(o, calls, third, 1, 1)
	closed := sys.closedLoop(o, calls, third, o.callers, rpcWindow)
	done := opened.done + single.done + closed.done
	m.finish(out, done)
	out.tally("rpc-small open loop", opened)
	out.tally("rpc-small single-request loop", single)
	out.tally("rpc-small closed loop", closed)
	// Throughput is the pipelined closed loop's. Latency is one caller's
	// with one request outstanding: the per-message cost of the path, not
	// a restatement of the throughput. The open loop's latency from due
	// time shows queueing at a fixed rate, but a descheduled virtual CPU
	// delays every arrival due while it is out, so it is only printed.
	closed.lat.rates(out)
	single.lat.latency(out)
	if p99, n, ok := opened.lat.p99Median(); ok {
		p50, _ := opened.lat.p50Median()
		out.note("open loop at %d/s, latency from due time: p50 %.1f us, p99 %.1f us (medians over %v windows, n=%d)", o.rate, p50, p99, window, n)
	} else {
		out.problem("open loop: too few latency samples for a p99")
	}
	if p50, ok := closed.lat.p50Median(); ok {
		out.note("closed loop of %d callers x %d pipelined requests: p50 %.1f us from issue to reply", o.callers, rpcWindow, p50)
	}
	lateLayer(out, opened.late)
	out.layer["dacapo.conns_active_end"] = metric{0, "count", 1} // Da CaPo is off the path

	cd := sys.cli.o.Metrics().Snapshot().Delta(before)
	sd := sys.srv.o.Metrics().Snapshot().Delta(sbefore)
	orbCounters(out, cd, sd)
	wireLayer(out, sys.cli.wire, wire0, done)

	sys.shutdown()
	checkGoroutines(out, base)
	return out
}

// qosBindOutcome checks the GIOP 9.9 binding's negotiation outcome: tcp
// cannot carry QoS, so it must be a downgrade.
func (s *rpcSystem) qosBindOutcome(out *outcome) {
	g := s.qos.GrantedQoS()
	if g.Equal(rpcQoS()) {
		out.problem("rpc-small: tcp granted %v, expected a downgrade", g)
	}
	snap := s.cli.o.Metrics().Snapshot()
	out.layer["qos.outcome.ack"] = metric{float64(snap.Counter("orb.client.qos{result=ack}")), "count", 1}
	out.layer["qos.outcome.downgrade"] = metric{float64(snap.Counter("orb.client.qos{result=downgrade}")), "count", 1}
	out.layer["qos.outcome.nack"] = metric{float64(snap.Counter("orb.client.qos{result=bind_failure}") + snap.Counter("orb.client.qos{result=nack}")), "count", 1}
	if snap.Counter("orb.client.qos{result=downgrade}") != 1 {
		out.problem("rpc-small: %d downgrades, expected 1", snap.Counter("orb.client.qos{result=downgrade}"))
	}
}

// loopResult is the tally of one loop.
type loopResult struct {
	attempted, failed, done int64
	wrong                   int64 // failed with a wrong reply
	bytes                   int64
	lat, late               *windows // latency and generator lateness, µs
}

// arrival is one open-loop request slot; slots are reused round-robin.
type arrival struct {
	c   *call
	k   int
	due time.Time
	p   *orb.Pending
}

// openLoop issues Poisson arrivals at o.rate, each at its own due time.
// Replies are collected by one goroutine per binding (each connection
// answers in order), which stamps each completion and times it from the
// arrival's due time. An arrival that finds its slot still busy, or that
// the ORB refuses, counts as failed.
type openLoop struct {
	s     *rpcSystem
	calls []rpcCall
	sched *schedule
	ring  []*arrival
	busy  []atomic.Bool
	rate  int
	k     int // arrivals so far

	queues [2]chan *arrival // plain, qos
	wg     sync.WaitGroup   // collectors
	out    sync.WaitGroup   // arrivals in flight

	mu  sync.Mutex
	lat *windows   // this window's latency from due time
	res loopResult // this window's failures
}

// openSlots bounds the arrivals in flight: far above rate × p99 latency.
const openSlots = 4096

func (s *rpcSystem) newOpenLoop(o opts, calls []rpcCall, sched *schedule) *openLoop {
	l := &openLoop{s: s, calls: calls, sched: sched, rate: o.rate, ring: make([]*arrival, openSlots), busy: make([]atomic.Bool, openSlots)}
	for i := range l.ring {
		l.ring[i] = &arrival{c: newCall(o.tr)}
	}
	for i := range l.queues {
		l.queues[i] = make(chan *arrival, openSlots) // holds every slot
		l.wg.Add(1)
		go l.collect(l.queues[i])
	}
	return l
}

func (l *openLoop) collect(q chan *arrival) {
	defer l.wg.Done()
	for a := range q {
		err := a.p.Wait(a.c.reply)
		now := time.Now()
		a.p = nil // the slot would otherwise keep the reply alive
		a.c.tr.done(a.c.tag, err == nil)
		l.mu.Lock()
		if err != nil {
			l.res.fail(err)
		} else {
			l.lat.add(now, float64(now.Sub(a.due).Nanoseconds())/1e3, len(a.c.body))
		}
		l.mu.Unlock()
		l.busy[a.k%openSlots].Store(false)
		l.out.Done()
	}
}

// stop ends the collectors once every arrival has been collected.
func (l *openLoop) stop() {
	for _, q := range l.queues {
		close(q)
	}
	l.wg.Wait()
}

// window runs the loop for d and returns its tally.
func (l *openLoop) window(d time.Duration) loopResult {
	var attempted, refused int64
	start := time.Now()
	late := newWindows(start, d)
	l.mu.Lock()
	l.lat = newWindows(start, d)
	l.mu.Unlock()
	off0 := time.Duration(l.sched.at)
	for {
		due := start.Add(l.sched.next() - off0)
		if due.Sub(start) >= d {
			break
		}
		// nanosleep rather than a Go timer: on an idle processor Go rounds
		// a sub-millisecond timer up to the millisecond. The thread's
		// timer slack makes the wake-up a little late; the spin absorbs
		// an early wake-up.
		if w := time.Until(due); w > 0 {
			ts := syscall.NsecToTimespec(int64(w))
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait
		}
		for time.Now().Before(due) {
		}
		now := time.Now()
		late.add(now, float64(now.Sub(due).Nanoseconds())/1e3, 0)
		attempted++
		k := l.k
		l.k++
		if l.busy[k%openSlots].Load() {
			refused++
			continue
		}
		a := l.ring[k%openSlots]
		c := l.calls[k%len(l.calls)]
		a.k, a.due = k, due
		a.c.body, a.c.tag = c.body, l.s.tags.Add(1)
		a.c.tr.stamp(a.c.tag, stInvoke)
		p, err := l.s.obj(c).InvokeDeferred("echo", a.c.args)
		if err != nil {
			refused++
			continue
		}
		a.p = p
		l.busy[k%openSlots].Store(true)
		l.out.Add(1)
		q := l.queues[0]
		if c.qos {
			q = l.queues[1]
		}
		q <- a
	}
	l.out.Wait()
	l.mu.Lock()
	r := l.res
	l.res = loopResult{}
	l.mu.Unlock()
	r.attempted, r.failed, r.late, r.lat = attempted, r.failed+refused, late, l.lat
	r.done = attempted - r.failed
	return r
}

// closedLoop runs callers callers, each holding win pipelined deferred
// requests, for d. Each call is timed from its issue to its
// reply, and tallied by the window it completes in.
func (s *rpcSystem) closedLoop(o opts, calls []rpcCall, d time.Duration, callers, win int) loopResult {
	start := time.Now()
	deadline := start.Add(d)
	lat := newWindows(start, d)
	results := make([]loopResult, callers)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &results[w]
			ring := make([]*call, win)
			pend := make([]*orb.Pending, win)
			issued := make([]time.Time, win)
			for i := range ring {
				ring[i] = newCall(o.tr)
			}
			k := w * 7919
			issue := func(i int) {
				c := calls[k%len(calls)]
				k++
				cc := ring[i]
				cc.body, cc.tag = c.body, s.tags.Add(1)
				r.attempted++
				cc.tr.stamp(cc.tag, stInvoke)
				issued[i] = time.Now()
				p, err := s.obj(c).InvokeDeferred("echo", cc.args)
				if err != nil {
					r.fail(err)
				}
				pend[i] = p
			}
			collect := func(i int) {
				p := pend[i]
				if p == nil {
					return
				}
				pend[i] = nil
				cc := ring[i]
				err := p.Wait(cc.reply)
				now := time.Now()
				cc.tr.done(cc.tag, err == nil)
				if err != nil {
					r.fail(err)
					return
				}
				r.done++
				r.bytes += int64(len(cc.body))
				lat.add(now, float64(now.Sub(issued[i]).Nanoseconds())/1e3, len(cc.body))
			}
			for i := range ring {
				issue(i)
			}
			for i := 0; time.Now().Before(deadline); i = (i + 1) % win {
				collect(i)
				issue(i)
			}
			for i := range pend {
				collect(i)
			}
		}(w)
	}
	wg.Wait()
	r := loopResult{lat: lat}
	for w := range results {
		r.add(results[w])
	}
	return r
}
