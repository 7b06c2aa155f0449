package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cool/internal/giop"
	"cool/internal/ior"
	"cool/internal/obs"
	"cool/internal/orb"
	"cool/internal/qos"
)

// qos-sessions: sequential sessions, each a fresh Da CaPo client ORB that
// binds with a QoS set drawn from a menu, makes a few small echo calls and
// shuts down. The menu covers grantable sets and both NACK scenarios of
// the paper's Figure 3.

// Expected outcome of a session's QoS binding.
const (
	expAck           = "ack"            // granted as asked
	expTransportNACK = "transport-nack" // server Da CaPo admission refuses
	expBilateralNACK = "bilateral-nack" // servant capability refuses (GIOP 9.9 NACK)
)

// sessionsBudget is the server's Da CaPo admission budget in kbit/s, below
// the 10 Mbit/s the WAN profile declares.
const sessionsBudget = 6000

// sessionServantLatency is the best one-way latency (µs) the servant
// declares it can honour.
const sessionServantLatency = 50_000

// callsPerSession is the number of echo calls of a granted session.
const callsPerSession = 8

type menuEntry struct {
	name string
	set  qos.Set
	want string
}

var sessionMenu = []menuEntry{
	{"reliable", qos.Set{
		{Type: qos.Throughput, Request: 400, Max: qos.NoLimit, Min: 100},
		{Type: qos.Reliability, Request: 0, Max: 0, Min: 0},
		{Type: qos.Ordering, Request: 1, Max: 1, Min: 1},
	}, expAck},
	{"encrypted", qos.Set{
		{Type: qos.Throughput, Request: 300, Max: qos.NoLimit, Min: 100},
		{Type: qos.Confidentiality, Request: 1, Max: 1, Min: 1},
	}, expAck},
	{"throughput", qos.Set{
		{Type: qos.Throughput, Request: 500, Max: qos.NoLimit, Min: 200},
	}, expAck},
	{"over-budget", qos.Set{
		{Type: qos.Throughput, Request: 8000, Max: qos.NoLimit, Min: 8000},
	}, expTransportNACK},
	{"tight-latency", qos.Set{
		{Type: qos.Latency, Request: 20_000, Max: 30_000, Min: 0},
	}, expBilateralNACK},
}

// sessionCapability is the servant's declared capability: anything, but
// no latency bound tighter than sessionServantLatency.
func sessionCapability() qos.Capability {
	c := qos.Unconstrained()
	c[qos.Latency] = qos.Limit{Best: sessionServantLatency, Supported: true}
	return c
}

type sessionServer struct {
	srv *side
	ref ior.Ref
}

func startSessionServer(tr *tracer) (*sessionServer, error) {
	s := &sessionServer{srv: newSide("sessions-server", tr, true, sessionsBudget, nil)}
	if _, err := s.srv.o.ListenOn("dacapo", "127.0.0.1:0"); err != nil {
		s.srv.o.Shutdown()
		return nil, err
	}
	ref, err := s.srv.o.RegisterServant(&servant{tr: tr}, orb.WithCapability(sessionCapability()))
	if err != nil {
		s.srv.o.Shutdown()
		return nil, err
	}
	s.ref = ref
	return s, nil
}

// sessionResult is what one session observed.
type sessionResult struct {
	got     string        // outcome class, as expAck etc.
	bind    time.Duration // SetQoSParameter to the first reply
	bytes   int64
	snap    obs.Snapshot // client metrics before Shutdown
	wrong   bool         // a reply did not match
	err     error        // an error other than the expected NACK
	granted qos.Set
}

// session runs one session with menu entry e on a fresh client side.
func (s *sessionServer) session(tr *tracer, cli *side, e menuEntry, bodies [][]byte, k int, tag func() uint32) sessionResult {
	var r sessionResult
	obj := cli.o.Resolve(s.ref)
	c := newCall(tr)
	t0 := time.Now()
	if err := obj.SetQoSParameter(e.set); err != nil {
		r.err = err
		return r
	}
	for i := 0; i < callsPerSession; i++ {
		c.body, c.tag = bodies[(k+i)%len(bodies)], tag()
		err := c.invoke(obj, "echo")
		if i == 0 {
			r.bind = time.Since(t0)
			r.got = classify(err)
			tr.bound(c.tag)
			if r.got != expAck {
				break
			}
			r.granted = obj.GrantedQoS()
		}
		if err != nil {
			r.wrong = errors.Is(err, errWrongReply)
			r.err = err
			break
		}
		r.bytes += int64(len(c.body))
	}
	r.snap = cli.o.Metrics().Snapshot()
	return r
}

// classify maps a first call's error to its outcome class.
func classify(err error) string {
	if err == nil {
		return expAck
	}
	var se *giop.SystemException
	if errors.As(err, &se) && se.IsNACK() {
		return expBilateralNACK
	}
	if errors.Is(err, errWrongReply) {
		return "wrong-reply"
	}
	return expTransportNACK
}

// sessionRun drives sessions against one server.
type sessionRun struct {
	o      opts
	srv    *sessionServer
	stats  *side // shared decorator tallies of the client sides (traced)
	draws  []int
	bodies [][]byte
	tags   atomic.Uint32
	k      atomic.Int64 // sessions started
}

func (r *sessionRun) tag() uint32 { return r.tags.Add(1) }

// sessionTally sums what a run of sessions observed.
type sessionTally struct {
	attempted, failed, bytes int64
	wrong                    int64 // sessions with a wrong reply
	late                     *windows
	tally                    *windows // nil while warming up
	got                      [3]int64 // outcomes of the sessions that passed
	clientQoS                map[string]uint64
	flushSum, flushN         uint64
	batchSum, batchN         uint64
	waits, redials           uint64
	problems                 []string
}

func newSessionTally() *sessionTally {
	return &sessionTally{clientQoS: map[string]uint64{}, late: newWindows(time.Now(), window)}
}

// run makes sessions for d from o.callers callers, each running its
// sessions one after another, and adds them to t.
func (r *sessionRun) run(d time.Duration, t *sessionTally) {
	start := time.Now()
	subs := make([]*sessionTally, r.o.callers)
	var wg sync.WaitGroup
	for i := range subs {
		subs[i] = &sessionTally{clientQoS: map[string]uint64{}, late: t.late, tally: t.tally}
		wg.Add(1)
		go func(sub *sessionTally) {
			defer wg.Done()
			r.loop(start, d, sub)
		}(subs[i])
	}
	wg.Wait()
	for _, sub := range subs {
		t.merge(sub)
	}
}

// loop makes sessions one after another until d has passed since start.
// The harness's own turnaround between one session's end and the next
// one's start is recorded as generator lateness.
func (r *sessionRun) loop(start time.Time, d time.Duration, t *sessionTally) {
	last := time.Time{}
	for time.Since(start) < d {
		if !last.IsZero() {
			now := time.Now()
			t.late.add(now, float64(now.Sub(last).Nanoseconds())/1e3, 0)
		}
		k := int(r.k.Add(1) - 1)
		e := sessionMenu[r.draws[k%len(r.draws)]]
		cli := newSide("sessions-client", r.o.tr, true, 0, r.stats)
		res := r.srv.session(r.o.tr, cli, e, r.bodies, k, r.tag)
		cli.o.Shutdown()
		last = time.Now()
		t.attempted++
		t.fold(res.snap)
		ok := res.got == e.want && !res.wrong
		if e.want == expAck && (res.err != nil || !res.granted.Equal(e.set)) {
			ok = false
		}
		if !ok {
			t.failed++
			if res.wrong || res.got == "wrong-reply" {
				t.wrong++
			}
			if len(t.problems) < 5 {
				t.problems = append(t.problems, fmt.Sprintf("session %d (%s): got %s, want %s (err %v)", k, e.name, res.got, e.want, res.err))
			}
			continue
		}
		t.got[outcomeIndex(res.got)]++
		if t.tally != nil {
			t.tally.add(time.Now(), float64(res.bind.Nanoseconds())/1e3, int(res.bytes))
		}
		t.bytes += res.bytes
	}
}

// merge adds another caller's tally (sharing late and tally) into t.
func (t *sessionTally) merge(o *sessionTally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.bytes += o.bytes
	for i := range t.got {
		t.got[i] += o.got[i]
	}
	for k, v := range o.clientQoS {
		t.clientQoS[k] += v
	}
	t.flushSum, t.flushN = t.flushSum+o.flushSum, t.flushN+o.flushN
	t.batchSum, t.batchN = t.batchSum+o.batchSum, t.batchN+o.batchN
	t.waits += o.waits
	t.redials += o.redials
	for _, p := range o.problems {
		if len(t.problems) < 5 {
			t.problems = append(t.problems, p)
		}
	}
}

// fold adds one session client's metrics.
func (t *sessionTally) fold(s obs.Snapshot) {
	for _, c := range s.Counters {
		if rest, ok := strings.CutPrefix(c.Name, "orb.client.qos{result="); ok {
			t.clientQoS[strings.TrimSuffix(rest, "}")] += c.Value
		}
	}
	if h, ok := s.Histogram("orb.client.flush_batch"); ok {
		t.flushSum, t.flushN = t.flushSum+h.Sum, t.flushN+h.Count
	}
	if h, ok := s.Histogram("dacapo.batch.size{stage=wire}"); ok {
		t.batchSum, t.batchN = t.batchSum+h.Sum, t.batchN+h.Count
	}
	if h, ok := s.Histogram("orb.client.flow_control_wait_us"); ok {
		t.waits += h.Count
	}
	t.redials += s.Counter("orb.client.redials")
}

func runQoSSessions(o opts) *outcome {
	out := newOutcome()
	base := runtime.NumGoroutine()
	r := &sessionRun{o: o, draws: sessionDraws(o.seed), bodies: sessionBodies(o.seed)}
	if o.tr != nil {
		r.stats = &side{wire: newWireStats(o.tr), dst: newDacapoStats(o.tr)}
	}

	// Set-up: the server, one client, and its granted calls, on the
	// median-sized payloads.
	first := medianSized(len(r.bodies), func(i int) int { return len(r.bodies[i]) })
	start := func() (*sessionServer, error) {
		s, err := startSessionServer(o.tr)
		if err != nil {
			return nil, err
		}
		cli := newSide("sessions-client", o.tr, true, 0, r.stats)
		res := s.session(o.tr, cli, sessionMenu[0], r.bodies, first, r.tag)
		cli.o.Shutdown()
		if res.err != nil || res.got != expAck {
			s.srv.o.Shutdown()
			return nil, fmt.Errorf("first session: %s %v", res.got, res.err)
		}
		return s, nil
	}
	stop := func(s *sessionServer) { s.srv.o.Shutdown() }
	srv, err := timeSetups(out, o.setups, start, stop)
	if err != nil {
		out.problem("qos-sessions set-up: %v", err)
		return out
	}
	r.srv = srv

	warm := newSessionTally()
	r.run(300*time.Millisecond, warm)
	sb := r.srv.srv.o.Metrics().Snapshot()
	var wire0 wireCount
	var msgs0 int64
	if r.stats != nil {
		wire0, msgs0 = wireCounts(r.stats.wire), r.stats.dst.msgs.Load()
	}
	m := startMeasure()
	t := newSessionTally()
	t0 := time.Now()
	t.tally, t.late = newWindows(t0, o.dur), newWindows(t0, o.dur)
	r.run(o.dur, t)
	done := t.attempted - t.failed
	m.finish(out, done)
	out.tally("qos-sessions warm-up", loopResult{attempted: warm.attempted, failed: warm.failed, wrong: warm.wrong})
	out.tally("qos-sessions", loopResult{attempted: t.attempted, failed: t.failed, wrong: t.wrong})
	out.problems = append(out.problems, warm.problems...)
	out.problems = append(out.problems, t.problems...)
	t.tally.report(out)
	lateLayer(out, t.late)

	// Outcomes: every session's class matched its menu entry (a mismatch
	// failed the session above), and the ORBs' own counters must agree.
	out.layer["qos.outcome.ack"] = metric{float64(t.got[0]), "count", int(t.attempted)}
	out.layer["qos.outcome.downgrade"] = metric{float64(t.clientQoS["downgrade"]), "count", int(t.attempted)}
	out.layer["qos.outcome.nack"] = metric{float64(t.got[1] + t.got[2]), "count", int(t.attempted)}
	ssnap := r.srv.srv.o.Metrics().Snapshot()
	sd := ssnap.Delta(sb)
	if n := t.clientQoS["bind_failure"]; n != uint64(t.got[1]) {
		out.problem("client ORBs counted %d bind failures, %d transport NACKs expected", n, t.got[1])
	}
	if n := sd.Counter("orb.server.qos{result=nack}"); n != uint64(t.got[2]) {
		out.problem("server counted %d bilateral NACKs, %d expected", n, t.got[2])
	}
	if n := rejected(sd); n != uint64(t.got[1]) {
		out.problem("server Da CaPo rejected %d admissions, %d expected", n, t.got[1])
	}

	out.layer["orb.client.flush_batch_mean"] = metric{ratio(float64(t.flushSum), float64(t.flushN)), "count", int(t.flushN)}
	out.layer["orb.server.flush_batch_mean"] = metric{flushMean(sd, "orb.server.flush_batch"), "count", 1}
	out.layer["orb.client.flow_waits"] = metric{float64(t.waits), "count", 1}
	out.layer["orb.client.redials"] = metric{float64(t.redials), "count", 1}
	out.path.clientFlushMean = out.layer["orb.client.flush_batch_mean"].Value
	out.path.serverFlushMean = out.layer["orb.server.flush_batch_mean"].Value
	if r.stats != nil {
		wireLayer(out, r.stats.wire, wire0, done)
		dacapoLayer(out, r.stats, r.srv.srv, obs.Snapshot{}, sd, msgs0, wire0)
	} else {
		out.layer["dacapo.admission_rejected"] = metric{float64(rejected(sd)), "count", 1}
	}
	out.layer["dacapo.batch_wire_mean"] = metric{ratio(float64(t.batchSum), float64(t.batchN)), "count", int(t.batchN)}
	out.path.stacks = stacks(ssnap)

	checkQuiet(out, r.srv.srv, sessionsBudget)
	r.srv.srv.o.Shutdown()
	checkGoroutines(out, base)
	return out
}

func outcomeIndex(s string) int {
	switch s {
	case expAck:
		return 0
	case expTransportNACK:
		return 1
	default:
		return 2
	}
}
