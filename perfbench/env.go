package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cool/internal/cdr"
	"cool/internal/dacapo"
	"cool/internal/dacapo/modules"
	"cool/internal/giop"
	"cool/internal/netsim"
	"cool/internal/obs"
	"cool/internal/orb"
	"cool/internal/qos"
	"cool/internal/transport"
)

// metric is one reported value with its unit and sample count.
type metric struct {
	Value float64
	Unit  string
	N     int
}

// outcome is what one workload pass reports.
type outcome struct {
	e2e       map[string]metric
	layer     map[string]metric
	attempted int64
	failed    int64
	// problems lists failed correctness checks; any makes the run fail.
	problems []string
	// notes are printed with the metrics.
	notes []string
	// path records the code path taken, compared between the traced and
	// untraced passes.
	path pathSig
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// pathSig is the code-path evidence of a pass: the Da CaPo stacks
// selected, the segment split, and whether writes were coalesced.
type pathSig struct {
	stacks           map[string]uint64
	inline, threaded int64
	clientFlushMean  float64
	serverFlushMean  float64
}

// opts configures one workload pass.
type opts struct {
	seed    int64
	dur     time.Duration
	rate    int // rpc-small open-loop arrivals per second
	setups  int // set-up repetitions for setup_s
	tr      *tracer
	callers int
}

// linkCap is the declared raw capability of the link under Da CaPo: the
// lossy WAN profile, which makes Reliable map to window+crc32 even though
// the bytes actually cross loopback TCP.
func linkCap() qos.Capability { return netsim.WAN().Capability() }

// side is one ORB of a workload with the layers it was built with.
type side struct {
	o    *orb.ORB
	wire *wireStats
	dst  *dacapoStats
	rm   *dacapo.ResourceManager
}

// newSide builds an ORB whose tcp transport is decorated when tracing, and
// with Da CaPo over tcp when dacapo is set (budget in kbit/s, 0 =
// unlimited).
//
// When tracing, the decorators count into stats when it is given (so many
// short-lived sides can share one tally) and into fresh counters
// otherwise.
func newSide(name string, tr *tracer, dacapoOn bool, budget uint32, stats *side) *side {
	s := &side{}
	if tr != nil {
		if stats == nil {
			stats = &side{wire: newWireStats(tr), dst: newDacapoStats(tr)}
		}
		s.wire, s.dst = stats.wire, stats.dst
	}
	var tcp transport.Manager = transport.NewTCPManager()
	var opts []orb.Option
	opts = append(opts, orb.WithName(name))
	if tr != nil {
		tcp = newTManager(tcp, tr, s.wire, dacapoOn)
		opts = append(opts, orb.WithTransport(tcp))
	}
	if !dacapoOn {
		s.o = orb.New(opts...)
		return s
	}
	lib := modules.NewLibrary()
	if tr != nil {
		lib = tracedLibrary(tr)
	}
	s.rm = dacapo.NewResourceManager(budget, 0)
	dm := dacapo.NewManager(tcp, lib, s.rm, linkCap())
	var mgr transport.Manager = dm
	if tr != nil {
		mgr = &dManager{inner: dm, wire: tcp.(*tManager), tr: tr, st: s.dst}
	}
	s.o = orb.New(append(opts, orb.WithTransport(mgr))...)
	dm.Instrument(s.o.Metrics(), s.o.Tracer())
	return s
}

// servant serves the three workloads: "echo" returns the tag and the
// payload, "put" returns the tag, the payload length and its CRC-32.
type servant struct{ tr *tracer }

// corruptReply, when above 0, counts replies down; the servant sends a
// wrong tag in the reply that takes it to 0. Tests use it to show that a
// wrong reply fails the run.
var corruptReply atomic.Int64

func (*servant) RepoID() string { return "IDL:perfbench/Target:1.0" }

func (s *servant) Invoke(inv *orb.Invocation) (orb.ReplyWriter, error) {
	tag, err := inv.Args.ReadULong()
	if err != nil {
		return nil, giop.MarshalException()
	}
	s.tr.stamp(tag, stServIn)
	body, err := inv.Args.ReadOctetSeq()
	if err != nil {
		return nil, giop.MarshalException()
	}
	rtag := tag
	if corruptReply.Load() > 0 && corruptReply.Add(-1) == 0 {
		rtag++
	}
	var w orb.ReplyWriter
	switch inv.Operation {
	case "echo":
		w = func(enc *cdr.Encoder) {
			enc.WriteULong(rtag)
			enc.WriteOctetSeq(body)
		}
	case "put":
		n, sum := uint32(len(body)), crc32.ChecksumIEEE(body)
		w = func(enc *cdr.Encoder) {
			enc.WriteULong(rtag)
			enc.WriteULong(n)
			enc.WriteULong(sum)
		}
	default:
		return nil, giop.BadOperation()
	}
	s.tr.stamp(tag, stServOut)
	return w, nil
}

// errWrongReply marks a reply that decoded but did not match its request.
var errWrongReply = errors.New("wrong reply")

// call is one request's client state. Its callbacks are bound once, so
// the harness adds no allocation per request.
type call struct {
	tr   *tracer
	tag  uint32
	body []byte
	sum  uint32 // expected CRC-32 of body ("put")
	put  bool

	args  func(*cdr.Encoder)
	reply func(*cdr.Decoder) error
}

func newCall(tr *tracer) *call {
	c := &call{tr: tr}
	c.args = c.encode
	c.reply = c.decode
	return c
}

func (c *call) encode(enc *cdr.Encoder) {
	c.tr.stamp(c.tag, stArgsIn)
	enc.WriteULong(c.tag)
	enc.WriteOctetSeq(c.body)
	c.tr.stamp(c.tag, stArgsOut)
}

func (c *call) decode(dec *cdr.Decoder) error {
	c.tr.stamp(c.tag, stReplyIn)
	err := c.check(dec)
	c.tr.stamp(c.tag, stReplyOut)
	return err
}

func (c *call) check(dec *cdr.Decoder) error {
	tag, err := dec.ReadULong()
	if err != nil {
		return err
	}
	if c.put {
		n, err := dec.ReadULong()
		if err != nil {
			return err
		}
		sum, err := dec.ReadULong()
		if err != nil {
			return err
		}
		if tag != c.tag || int(n) != len(c.body) || sum != c.sum {
			return errWrongReply
		}
		return nil
	}
	body, err := dec.ReadOctetSeq()
	if err != nil {
		return err
	}
	if tag != c.tag || len(body) != len(c.body) {
		return errWrongReply
	}
	return nil
}

// invoke makes one synchronous call.
func (c *call) invoke(obj *orb.Object, op string) error {
	c.tr.stamp(c.tag, stInvoke)
	err := obj.Invoke(op, c.args, c.reply)
	c.tr.done(c.tag, err == nil)
	return err
}

// proc is a point-in-time reading of the process counters.
type proc struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
	gcs    uint64
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readProc() proc {
	s := make([]metrics.Sample, len(procSamples))
	copy(s, procSamples)
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return proc{wall: time.Now(), cpu: cpu, allocs: s[0].Value.Uint64(), gcs: s[1].Value.Uint64()}
}

// sampler tracks the peak heap in use of each window and the peak
// goroutine count while a measurement runs. Its fields are read after
// done.
type sampler struct {
	stop      chan struct{}
	wg        sync.WaitGroup
	heapPeaks []float64 // bytes, per window
	gorPeak   uint64
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ms := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
			{Name: "/sched/goroutines:goroutines"},
		}
		start := time.Now()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(ms)
			i := int(time.Since(start) / window)
			for len(s.heapPeaks) <= i {
				s.heapPeaks = append(s.heapPeaks, 0)
			}
			s.heapPeaks[i] = max(s.heapPeaks[i], float64(ms[0].Value.Uint64()+ms[1].Value.Uint64()))
			s.gorPeak = max(s.gorPeak, ms[2].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) done() {
	close(s.stop)
	s.wg.Wait()
}

// measure brackets a measured phase: process counters and the sampler.
type measure struct {
	p0 proc
	s  *sampler
}

func startMeasure() *measure { return &measure{p0: readProc(), s: startSampler()} }

// finish reports the process metrics of the phase for ops completed
// operations: heap_peak_mb and allocs_per_op end to end, the rest per
// layer.
func (m *measure) finish(out *outcome, ops int64) {
	m.s.done()
	p1 := readProc()
	wall := p1.wall.Sub(m.p0.wall)
	out.e2e["allocs_per_op"] = metric{ratio(float64(p1.allocs-m.p0.allocs), float64(ops)), "count", int(ops)}
	// The median of the windows' peaks: the highest sample of a whole run
	// moves with every GC cycle a stalled CPU delays.
	out.e2e["heap_peak_mb"] = metric{median(m.s.heapPeaks) / (1 << 20), "MB", len(m.s.heapPeaks)}
	out.layer["runtime.cpu_busy_pct"] = metric{100 * ratio(float64(p1.cpu-m.p0.cpu), float64(wall)*float64(runtime.GOMAXPROCS(0))), "%", 1}
	out.layer["runtime.gc_per_kop"] = metric{ratio(float64(p1.gcs-m.p0.gcs), float64(ops)/1000), "count", int(ops)}
	out.layer["runtime.goroutines_peak"] = metric{float64(m.s.gorPeak), "count", 1}
	cpuPerOp := ratio(float64((p1.cpu-m.p0.cpu).Nanoseconds())/1e3, float64(ops))
	out.layer["runtime.cpu_us_per_op"] = metric{cpuPerOp, "us", int(ops)}
	out.note("measured phase: %.2f s wall, %.2f s process CPU (%.1f%% of %d CPUs), %.2f us CPU per operation",
		wall.Seconds(), (p1.cpu - m.p0.cpu).Seconds(), out.layer["runtime.cpu_busy_pct"].Value, runtime.GOMAXPROCS(0), cpuPerOp)
}

// lateLayer reports the p99 of the load generator's lateness.
func lateLayer(out *outcome, late *windows) {
	if v, n, ok := late.p99Median(); ok {
		out.layer["bench.gen_late_p99_us"] = metric{v, "us", n}
	} else {
		out.problem("too few samples for the generator lateness p99")
	}
}

// flushMean returns the mean frames per coalesced write of a flush_batch
// histogram in snap.
func flushMean(snap obs.Snapshot, name string) float64 {
	h, ok := snap.Histogram(name)
	if !ok {
		return 0
	}
	return ratio(float64(h.Sum), float64(h.Count))
}

// waitFor polls cond for up to d.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// timeSetups makes n set-ups with start, each timed until start returns
// after its system's first successful operation, and reports setup_s as
// their median. It stops all but the last, which it returns running.
func timeSetups[T any](out *outcome, n int, start func() (T, error), stop func(T)) (T, error) {
	var kept T
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		s, err := start()
		if err != nil {
			return kept, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			stop(s)
		} else {
			kept = s
		}
	}
	first := times[0]
	q1, med, q3 := quartiles(times)
	out.e2e["setup_s"] = metric{med, "s", len(times)}
	out.note("set-up: %d made, median %.3f ms, quartiles %.3f-%.3f ms, the first %.3f ms", n, 1e3*med, 1e3*q1, 1e3*q3, 1e3*first)
	return kept, nil
}

// checkQuiet asserts the end-of-workload invariants on a Da CaPo server
// side: no active connection, no reservation held.
func checkQuiet(out *outcome, srv *side, budget uint32) {
	if srv.rm == nil {
		return
	}
	reg := srv.o.Metrics()
	if !waitFor(5*time.Second, func() bool { return reg.Snapshot().Gauge("dacapo.conns.active") == 0 }) {
		out.problem("server dacapo.conns.active = %d after the workload", reg.Snapshot().Gauge("dacapo.conns.active"))
	}
	if !waitFor(5*time.Second, func() bool { return srv.rm.Connections() == 0 }) {
		out.problem("server still holds %d reservations after the workload", srv.rm.Connections())
	}
	if avail, limited := srv.rm.Available(); limited && avail != budget {
		out.problem("server budget %d kbit/s of %d free after the workload", avail, budget)
	}
	out.layer["dacapo.conns_active_end"] = metric{float64(reg.Snapshot().Gauge("dacapo.conns.active")), "count", 1}
}

// checkGoroutines asserts the goroutine count is back to base.
func checkGoroutines(out *outcome, base int) {
	if !waitFor(5*time.Second, func() bool { return runtime.NumGoroutine() <= base }) {
		out.problem("%d goroutines after Shutdown, %d before the workload", runtime.NumGoroutine(), base)
	}
}

// window is the length of the windows a measured phase is split into.
// Throughput and latency are reported as the median of their per-window
// values, so a stall in a few windows (a descheduled virtual CPU, a GC
// cycle) moves them little.
const window = 500 * time.Millisecond

// windows tallies the completions of a measured phase by the window they
// fall in. Latency samples are reduced to percentiles as each window
// closes, so memory does not grow with the run. Safe for concurrent use.
type windows struct {
	mu    sync.Mutex
	start time.Time
	n     int     // full windows; later completions land in an overflow slot
	done  []int64 // per window
	bytes []int64
	cur   int       // window whose samples are in buf
	buf   []float64 // µs
	pend  []float64 // samples of closed windows not yet enough for a p99
	p50   []float64 // per closed window
	p99   []float64 // per group of closed windows with enough samples
	nlat  int
}

// newWindows starts a tally of the phase of length d beginning at start.
func newWindows(start time.Time, d time.Duration) *windows {
	if d <= 0 {
		d = window
	}
	n := max(1, int(d/window))
	return &windows{start: start, n: n, done: make([]int64, n+1), bytes: make([]int64, n+1)}
}

// add records one completion at t with its latency and payload bytes.
func (w *windows) add(t time.Time, latUS float64, bytes int) {
	i := min(max(int(t.Sub(w.start)/window), 0), w.n)
	w.mu.Lock()
	if i > w.cur {
		w.close()
		w.cur = i
	}
	w.done[i]++
	w.bytes[i] += int64(bytes)
	w.buf = append(w.buf, latUS)
	w.mu.Unlock()
}

// close reduces the current window's samples; the overflow slot's are
// dropped. Callers hold w.mu.
func (w *windows) close() {
	if w.cur < w.n {
		if v, err := percentile(w.buf, 0.50); err == nil {
			w.p50 = append(w.p50, v)
			w.nlat += len(w.buf)
		}
		w.pend = append(w.pend, w.buf...)
		if v, err := percentile(w.pend, 0.99); err == nil {
			w.p99 = append(w.p99, v)
			w.pend = w.pend[:0]
		}
	}
	w.buf = w.buf[:0]
}

// p99Median closes the tally and returns the median p99 of its windows
// and the number of samples behind it.
func (w *windows) p99Median() (float64, int, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.close()
	w.cur = w.n
	return median(w.p99), w.nlat, len(w.p99) > 0
}

// report sets throughput_ops, goodput_mbps, p50_us and bench.p99_us.
func (w *windows) report(out *outcome) {
	w.rates(out)
	w.latency(out)
}

// rates sets throughput_ops and goodput_mbps from the full windows.
func (w *windows) rates(out *outcome) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var thr, gp []float64
	total := 0
	sec := window.Seconds()
	for i := 0; i < w.n; i++ {
		thr = append(thr, float64(w.done[i])/sec)
		gp = append(gp, float64(w.bytes[i])*8/1e6/sec)
		total += int(w.done[i])
	}
	out.e2e["throughput_ops"] = metric{median(thr), "1/s", total}
	out.e2e["goodput_mbps"] = metric{median(gp), "Mbit/s", total}
}

// latency sets p50_us and bench.p99_us.
func (w *windows) latency(out *outcome) {
	p99, n, ok := w.p99Median()
	if p50, ok := w.p50Median(); ok {
		out.e2e["p50_us"] = metric{p50, "us", n}
	} else {
		out.problem("no window has enough samples for a p50")
	}
	if !ok {
		out.problem("too few latency samples for a p99")
		return
	}
	out.layer["bench.p99_us"] = metric{p99, "us", n}
}

// p50Median returns the median p50 of the closed windows.
func (w *windows) p50Median() (float64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return median(w.p50), len(w.p50) > 0
}

// add sums another tally's counts into r.
func (r *loopResult) add(o loopResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
	r.done += o.done
	r.bytes += o.bytes
}

// fail tallies one failed operation.
func (r *loopResult) fail(err error) {
	r.failed++
	if errors.Is(err, errWrongReply) {
		r.wrong++
	}
}

// tally adds the counts of a loop (warm-up or measured) to out. Any
// failed operation fails the run: the workloads are chosen so that none
// fails.
func (out *outcome) tally(phase string, r loopResult) {
	out.attempted += r.attempted
	out.failed += r.failed
	if r.failed > 0 {
		out.problem("%s: %d of %d operations failed, %d of them with a wrong reply", phase, r.failed, r.attempted, r.wrong)
	}
}
