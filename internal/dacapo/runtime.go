package dacapo

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"cool/internal/bufpool"
	"cool/internal/qos"
	"cool/internal/transport"
)

// queueDepth bounds the down-direction packets that paused stages hold on
// the sender's behalf: once they hold that many, Send waits. This is the
// backpressure from a full ARQ window or an empty token bucket up to the
// application.
const queueDepth = 64

// flushDelay is how long the frames a receive step queued (ACKs) wait for
// a sender to write them before the flush timer does, unless the module
// calls Context.Flush. On request/reply traffic the ACK of a request then
// leaves with the reply, in one write. It stays far below any
// retransmission timeout.
const flushDelay = 200 * time.Microsecond

// Intake states of a blocking stage (Context.paused).
const (
	intakeOpen int32 = iota
	// intakePeer: paused until the peer answers (ACKs), so a sender
	// blocked behind the stage reads the transport when nobody else does.
	intakePeer
	// intakeTimed: paused until the stage's own timer fires, so a blocked
	// sender just waits.
	intakeTimed
)

// stage is one module's slot in a generation of the module graph.
type stage struct {
	mod      Module
	ctx      *Context
	blocking bool
	started  bool

	// The fields below serve blocking stages only. mu makes the stage a
	// locked run-to-completion stage: whichever goroutine reaches it (the
	// sender, the receiver, or the stage's timer) runs its handlers under
	// mu, together with the inline stages below it in the down direction.
	// Their wire frames join the runtime's wire queue under mu, so wire
	// order is emission order; they are written once mu is released.
	mu sync.Mutex
	// pending holds down-direction packets accepted while intake is
	// paused, oldest at head.
	pending []*Packet
	head    int
	// up gathers HandleUp's emissions while mu is held; handUp is the
	// receive path's copy, handed up after mu is released (readMu keeps
	// the order).
	up, handUp []*Packet

	// events are Post-ed events, run before mu is released.
	events []any

	// The stage's one timer (Context.After), reused across arms. All
	// fields are guarded by mu.
	timer      *time.Timer
	timerEv    any
	timerAt    time.Time
	timerArmed bool
	timerReads bool   // armed by After, not Throttle: see readForTimer
	stopTimer  func() // ctx.cancelTimer, bound once
}

// Runtime executes a module graph between an application endpoint (Send /
// Recv) and a transport channel: the Da CaPo runtime environment of
// Figure 5. It starts no goroutines. Send runs the down direction on the
// caller and Recv reads the transport and runs the up direction on the
// caller. Inline stages run on whichever goroutine reaches them; a
// blocking stage (Blocker) is a locked run-to-completion stage whose
// handlers run under the stage's lock, on the sender, the receiver or the
// stage's timer, whichever reaches it.
//
// Frames leave through the wire queue: they join it in emission order (a
// blocking stage's under its lock) and are written after any stage lock
// is released, by the sender or a timer goroutine, never by the receive
// path. A receive step therefore never waits for a write, so each end
// keeps reading while the peer is slow to read what it writes.
type Runtime struct {
	reg *Registry
	tch transport.Channel
	bch transport.BatchChannel // non-nil when tch supports vectored writes

	// locked lists the blocking stages, top down.
	locked []*stage

	// The wire queue. wq holds frames in wire order (guarded by wqMu).
	// writeMu is held by the goroutine that writes the queue, which owns
	// wqSpare, its second backing array, and wireFrames, the vectored-write
	// scratch. flushTimer writes what a receive step queued (flushArmed,
	// guarded by wqMu, while it is pending).
	wqMu       sync.Mutex
	wq         []*Packet
	writeMu    sync.Mutex
	wqSpare    []*Packet
	wireFrames [][]byte
	flushTimer *time.Timer
	flushArmed bool

	// down and up are the stage lists seen by each direction. They are
	// the same slice until a mid-stream reconfiguration splices in a new
	// generation direction by direction (down under sendMu, up under
	// readMu).
	sendMu         sync.Mutex
	readMu         sync.Mutex
	down           []*stage
	up             []*stage
	downGen, upGen uint32

	// queued counts the packets paused stages hold (Send waits at
	// queueDepth); readers counts Recv callers; a waiting sender sets
	// sendWaiting and sleeps on wake.
	queued      atomic.Int32
	readers     atomic.Int32
	sendWaiting atomic.Bool
	wake        chan struct{}

	// scratch holds packets delivered to the application by the up
	// chain, pending pickup by the Recv caller (readMu).
	scratch     []*Packet
	scratchHead int

	stop      chan struct{}
	stopOnce  sync.Once
	closeOnce sync.Once
	started   atomic.Bool
	firstErr  atomic.Pointer[error]

	statsLock   sync.Mutex
	spec        Spec
	statsStages []*stage
	retired     []ModuleStats

	// Mid-stream reconfiguration state (reconfig.go).
	rcMu        sync.Mutex
	rcPolicy    AcceptPolicy
	rcGen       uint32
	rcInit      *reconfigState
	rcResp      *reconfigState
	rcTimeout   time.Duration
	rcOnSplice  []func(Spec, qos.Set)
	rcStarted   atomic.Uint64
	rcCompleted atomic.Uint64
	rcAborted   atomic.Uint64

	// wireHist, when instrumented, observes vectored wire-flush sizes.
	wireHist batchObserver
}

// NewRuntime builds (but does not start) a runtime for spec over the given
// transport channel.
func NewRuntime(spec Spec, reg *Registry, tch transport.Channel) (*Runtime, error) {
	modules, err := spec.build(reg)
	if err != nil {
		return nil, err
	}
	r := &Runtime{
		reg:       reg,
		tch:       tch,
		spec:      spec,
		stop:      make(chan struct{}),
		rcTimeout: defaultReconfigTimeout,
		wake:      make(chan struct{}, 1),
	}
	r.bch, _ = transport.AsBatchChannel(tch)
	stages := r.buildStages(modules)
	r.down, r.up = stages, stages
	r.statsStages = stages
	for _, s := range stages {
		if s.blocking {
			r.locked = append(r.locked, s)
		}
	}
	return r, nil
}

// buildStages wires a generation of stages.
func (r *Runtime) buildStages(modules []Module) []*stage {
	stages := make([]*stage, len(modules))
	for i, m := range modules {
		_, blocking := m.(Blocker)
		s := &stage{mod: m, blocking: blocking}
		s.ctx = &Context{rt: r, idx: i, st: s, stages: stages}
		if blocking {
			s.stopTimer = s.ctx.cancelTimer
		}
		stages[i] = s
	}
	return stages
}

// Spec returns the protocol configuration the runtime currently executes.
func (r *Runtime) Spec() Spec {
	r.statsLock.Lock()
	defer r.statsLock.Unlock()
	return r.spec
}

// Segments reports the number of inline segments and of locked
// (blocking) stages the graph was split into.
func (r *Runtime) Segments() (inline, locked int) {
	for i, s := range r.down {
		switch {
		case s.blocking:
			locked++
		case i == 0 || r.down[i-1].blocking:
			inline++
		}
	}
	if inline == 0 && locked == 0 {
		inline = 1 // the empty stack is one passthrough segment
	}
	return inline, locked
}

// Start runs the module Start hooks. Blocking stages are locked while the
// hooks run, so timers and events armed by a hook are handled only once
// the whole graph is live. A failing hook poisons the runtime and
// surfaces synchronously.
func (r *Runtime) Start() error {
	if r.started.Swap(true) {
		return errors.New("dacapo: runtime already started")
	}
	for _, s := range r.locked {
		s.mu.Lock() //coollint:allow lockorder -- stage locks are taken top down, the order every down run takes them in
	}
	var err error
	for _, s := range r.down {
		if err = s.mod.Start(s.ctx); err != nil {
			err = fmt.Errorf("dacapo: start %s: %w", s.mod.Name(), err)
			break
		}
		s.started = true
	}
	// Release bottom up: a stage's queued events may emit into the stages
	// below it, which must be free by then.
	for i := len(r.locked) - 1; i >= 0; i-- {
		s := r.locked[i]
		if err != nil {
			s.mu.Unlock()
			continue
		}
		r.stageDone(r.release(s, nil))
	}
	if err == nil {
		err = r.pushWire()
	}
	if err != nil {
		r.recordErr(err)
		r.Close()
		return err
	}
	return nil
}

func (r *Runtime) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// downFrom runs the down direction from stage i on the current goroutine:
// inline stages execute directly, a blocking stage under its lock, and
// the wire queue terminates the chain.
//
//coollint:hotpath inline down-direction dispatch spine
func (r *Runtime) downFrom(stages []*stage, i int, p *Packet) error {
	if i >= len(stages) {
		return r.wireOut(p)
	}
	s := stages[i]
	if s.blocking {
		return r.downInto(s, p)
	}
	return s.mod.HandleDown(s.ctx, p)
}

// upFrom runs the up direction from stage i toward the application. Only
// the readMu holder runs it.
//
//coollint:hotpath inline up-direction dispatch spine
func (r *Runtime) upFrom(stages []*stage, i int, p *Packet) error {
	if i < 0 {
		r.scratch = append(r.scratch, p)
		return nil
	}
	s := stages[i]
	if s.blocking {
		return r.upInto(s, p)
	}
	return s.mod.HandleUp(s.ctx, p)
}

// downInto hands a packet to a blocking stage: it runs HandleDown under
// the stage's lock, or queues the packet while intake is paused. The
// stage owns what it is given, so borrowed caller memory migrates first.
//
//coollint:hotpath locked-stage down entry
func (r *Runtime) downInto(s *stage, p *Packet) error {
	if !p.owned {
		p.migrate(defaultHeadroom, defaultTailroom)
	}
	s.mu.Lock()
	if r.stopped() {
		s.mu.Unlock()
		putPacket(p)
		return ErrStopped
	}
	if s.ctx.paused.Load() != intakeOpen || s.head < len(s.pending) {
		if s.head > 0 && len(s.pending) == cap(s.pending) {
			// Reuse the drained front rather than grow.
			n := copy(s.pending, s.pending[s.head:])
			clear(s.pending[n:])
			s.pending, s.head = s.pending[:n], 0
		}
		s.pending = append(s.pending, p) //coollint:allocok paused-intake queue; its backing is reused and Send waits at queueDepth
		r.queued.Add(1)
		return r.release(s, nil)
	}
	return r.release(s, s.mod.HandleDown(s.ctx, p))
}

// upInto runs HandleUp of a blocking stage under its lock, then hands the
// stage's up emissions on toward the application after the lock is
// released. Only the readMu holder calls it, which keeps them in order.
// The frames the hold queued (ACKs) go to the flush timer.
//
//coollint:hotpath locked-stage up entry
func (r *Runtime) upInto(s *stage, p *Packet) error {
	s.mu.Lock()
	ctx := s.ctx
	ctx.upward = true
	err := s.mod.HandleUp(ctx, p)
	ctx.upward = false
	s.up, s.handUp = s.handUp, s.up
	err = r.release(s, err)
	r.kickWire(flushDelay)
	for i, q := range s.handUp {
		s.handUp[i] = nil
		if err == nil {
			err = r.upFrom(ctx.stages, ctx.idx-1, q)
		} else {
			putPacket(q)
		}
	}
	s.handUp = s.handUp[:0]
	return err
}

// release finishes a hold of s.mu: it runs posted events and, while
// intake is open, the queued packets, and unlocks. It returns the first
// error of the hold. The hold's wire frames wait in the wire queue for
// the caller to write them (pushWire) or hand them on (kickWire).
//
//coollint:hotpath locked-stage release
func (r *Runtime) release(s *stage, err error) error {
	err = r.drainLocked(s, err)
	s.mu.Unlock()
	r.wakeSender()
	return err
}

// drainLocked runs a stage's deferred work under its lock.
//
//coollint:hotpath locked-stage drain
func (r *Runtime) drainLocked(s *stage, err error) error {
	ctx := s.ctx
	for err == nil {
		if n := len(s.events); n > 0 {
			ev := s.events[0]
			copy(s.events, s.events[1:])
			s.events[n-1] = nil
			s.events = s.events[:n-1]
			if e := s.mod.HandleEvent(ctx, ev); e != nil {
				err = fmt.Errorf("dacapo: module %s: %w", s.mod.Name(), e)
			}
			continue
		}
		if ctx.paused.Load() != intakeOpen || s.head == len(s.pending) {
			break
		}
		p := s.pending[s.head]
		s.pending[s.head] = nil
		s.head++
		if s.head == len(s.pending) {
			s.pending = s.pending[:0]
			s.head = 0
		}
		r.queued.Add(-1)
		err = s.mod.HandleDown(ctx, p)
	}
	return err
}

// stageDone records the error of a hold that has no caller to return it
// to (timers, posted events).
func (r *Runtime) stageDone(err error) {
	if err != nil && !errors.Is(err, ErrStopped) {
		r.fail(err)
	}
}

// wakeSender wakes a sender waiting in admit to look again.
func (r *Runtime) wakeSender() {
	if r.sendWaiting.Load() {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// admit waits, under sendMu, while paused stages hold queueDepth packets.
// A stage paused for the peer (an ARQ window awaiting ACKs) resumes only
// when inbound frames are read, so while no Recv is running the waiting
// sender reads the transport itself: a send-only peer still receives its
// ACKs.
//
//coollint:hotpath send admission; one atomic load unless paused stages are full
func (r *Runtime) admit() error {
	if r.queued.Load() < queueDepth {
		return nil
	}
	return r.awaitQueue(queueDepth)
}

// settle runs after a send that left packets queued behind a stage paused
// for the peer. While no Recv is running, nobody else would read the ACKs
// that release them, so the sender stays and reads until the queue is
// empty; with a Recv running, Send returns and the packets stay queued.
//
//coollint:hotpath send settlement; one atomic load unless packets are queued
func (r *Runtime) settle() error {
	if r.queued.Load() == 0 {
		return nil
	}
	return r.awaitQueue(1)
}

// awaitQueue is the slow path of admit (limit queueDepth) and settle
// (limit 1): it waits until paused stages hold fewer than limit packets,
// reading the transport itself while a stage waits for the peer and no
// Recv is running. settle gives up whenever it would only wait.
func (r *Runtime) awaitQueue(limit int32) error {
	// The frames this sender queued must be on their way before it waits
	// for their ACKs.
	if err := r.pushWire(); err != nil {
		return err
	}
	r.sendWaiting.Store(true)
	defer r.sendWaiting.Store(false)
	for r.queued.Load() >= limit {
		if r.stopped() {
			return ErrStopped
		}
		canRead := r.pausedForPeer()
		if canRead {
			read, err := r.tryRead()
			switch {
			case read && err == nil:
				continue
			case err == errScratchFull:
				canRead = false
			case err != nil:
				return ErrStopped
			}
		}
		if limit < queueDepth && (!canRead || r.readers.Load() != 0) {
			return nil
		}
		select {
		case <-r.wake:
		case <-r.stop:
		}
	}
	return nil
}

// readForTimer runs receive steps on the goroutine of a timer armed by
// After (an ARQ retransmission timeout): the peer owes ACKs, and with the
// application neither receiving nor sending nobody else would read them.
// Packets left queued behind a full window, because a Recv was running
// when Send returned, move on only this way once the application goes
// idle. It reads at least one frame and goes on while a stage waits for
// the peer.
func (r *Runtime) readForTimer() {
	for {
		if read, err := r.tryRead(); !read || err != nil || !r.pausedForPeer() {
			return
		}
	}
}

// errScratchFull: queueDepth data frames already wait for the application,
// so a receive step on its behalf is declined.
var errScratchFull = errors.New("dacapo: receive scratch full")

// tryRead runs one receive step on behalf of a blocked sender or a timer
// when no Recv is running and readMu is free.
func (r *Runtime) tryRead() (read bool, err error) {
	if r.readers.Load() != 0 || r.stopped() || !r.readMu.TryLock() {
		return false, nil
	}
	if len(r.scratch)-r.scratchHead >= queueDepth {
		r.readMu.Unlock()
		return false, errScratchFull
	}
	err = r.recvStepLocked()
	r.readMu.Unlock()
	r.wakeSender()
	return true, err
}

// pausedForPeer reports whether a blocking stage waits for peer input.
func (r *Runtime) pausedForPeer() bool {
	for _, s := range r.locked {
		if s.ctx.paused.Load() == intakePeer {
			return true
		}
	}
	return false
}

// wireOut terminates the down chain at the wire queue. Data frames that
// collide with the control-frame magic are escape-wrapped (reconfig.go).
//
//coollint:hotpath wire egress
func (r *Runtime) wireOut(p *Packet) error {
	if hasCtrlMagic(p.Bytes()) {
		escapeWrap(p)
	}
	r.queueWire(p)
	return nil
}

// queueWire appends a frame to the wire queue.
func (r *Runtime) queueWire(p *Packet) {
	r.wqMu.Lock()
	r.wq = append(r.wq, p) //coollint:allocok the queue's two backing arrays are reused by every write
	r.wqMu.Unlock()
}

// pushWire writes the wire queue on the calling goroutine (a sender or a
// timer), unless another goroutine is writing it already: that one looks
// again when it is done, so the frames queued meanwhile leave with its
// next write. It returns the error of a write it made.
//
//coollint:hotpath wire-queue combiner
func (r *Runtime) pushWire() error {
	for r.wireQueued() {
		if !r.writeMu.TryLock() {
			return nil
		}
		err := r.writeQueue()
		r.writeMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *Runtime) wireQueued() bool {
	r.wqMu.Lock()
	n := len(r.wq)
	r.wqMu.Unlock()
	return n > 0
}

// writeQueue writes queued frames, a batch at a time, until the queue is
// empty (writeMu held).
func (r *Runtime) writeQueue() error {
	for {
		r.wqMu.Lock()
		batch := r.wq
		r.wq = r.wqSpare
		r.wqMu.Unlock()
		if len(batch) == 0 {
			r.wqSpare = batch
			return nil
		}
		err := r.writeFrames(batch)
		r.wqSpare = batch[:0]
		if err != nil {
			return err
		}
	}
}

// kickWire hands the frames a receive step queued to the flush timer,
// which writes them after d unless a sender or a stage timer writes them
// first; a shorter d brings a pending flush forward. The receive path
// never writes: a write blocked on a peer that is itself blocked writing
// would stop both ends from reading.
func (r *Runtime) kickWire(d time.Duration) {
	r.wqMu.Lock()
	if len(r.wq) > 0 && (!r.flushArmed || d == 0) {
		r.flushArmed = true
		if r.flushTimer == nil {
			r.flushTimer = time.AfterFunc(d, r.flushQueued)
		} else {
			r.flushTimer.Reset(d)
		}
	}
	r.wqMu.Unlock()
}

// flushQueued runs on the flush timer's goroutine.
func (r *Runtime) flushQueued() {
	r.wqMu.Lock()
	r.flushArmed = false
	r.wqMu.Unlock()
	r.stageDone(r.pushWire())
}

func releasePackets(pkts []*Packet) {
	for i, p := range pkts {
		putPacket(p)
		pkts[i] = nil
	}
}

// writeFrames writes wire frames, vectored when the transport supports
// it, and releases them.
//
//coollint:hotpath vectored wire write
func (r *Runtime) writeFrames(pkts []*Packet) error {
	if h := r.wireHist.Load(); h != nil {
		h.Observe(uint64(len(pkts)))
	}
	var err error
	if r.bch != nil && len(pkts) > 1 {
		frames := r.wireFrames[:0]
		for _, p := range pkts {
			frames = append(frames, p.Bytes()) //coollint:allocok growth lands in the reused r.wireFrames backing, amortized across flushes
		}
		err = r.bch.WriteMessages(frames)
		for i := range frames {
			frames[i] = nil // drop aliases before the buffers are recycled
		}
		r.wireFrames = frames[:0]
	} else {
		for _, p := range pkts {
			if err == nil {
				err = r.tch.WriteMessage(p.Bytes())
			}
		}
	}
	releasePackets(pkts)
	if err != nil {
		return fmt.Errorf("dacapo: transport write: %w", err)
	}
	return nil
}

// Send injects application data at the top of the stack (the A interface).
// The payload is borrowed: the down chain runs on the caller, and a
// blocking stage that keeps a packet past the call copies it first. Send
// waits while paused stages hold queueDepth packets. The caller then
// writes the wire queue, unless another goroutine is writing it (over a
// graph with blocking stages); Send may then return before its frames are
// written, and a later write error surfaces from the next call.
//
// Packets a paused stage holds move on only as ACKs are read. While no
// Recv is running, Send reads them itself before it returns; packets left
// queued while a Recv was running wait for the next Recv or Send.
//
//coollint:hotpath application send entry; runs the down chain inline
func (r *Runtime) Send(data []byte) error {
	r.sendMu.Lock()
	err := r.sendLocked(data) //coollint:allow lockhold lockorder -- backpressure by design: a sender waits under sendMu while paused stages are full; what resumes them (Recv, stage timers) never takes sendMu, and the receive steps it runs itself happen only over graphs with blocking stages, whose control replies are queued, not written under sendMu
	r.sendMu.Unlock()
	return err
}

func (r *Runtime) sendLocked(data []byte) error {
	if r.stopped() {
		return r.closeErr()
	}
	err := r.admit()
	if err == nil {
		err = r.downFrom(r.down, 0, wrapBorrowed(data))
	}
	if err == nil {
		err = r.pushWire()
	}
	if err == nil {
		err = r.settle()
	}
	return r.finishSend(err)
}

func (r *Runtime) finishSend(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrStopped) {
		return r.closeErr()
	}
	r.fail(err)
	return err
}

// SendBatch sends every frame through the stack under one lock
// acquisition; the resulting wire frames leave in a single vectored write
// unless a paused stage holds some back. Frames are borrowed for the
// duration of the call.
//
//coollint:hotpath batched application send entry
func (r *Runtime) SendBatch(frames [][]byte) error {
	r.sendMu.Lock()
	if r.stopped() {
		r.sendMu.Unlock()
		return r.closeErr()
	}
	var err error
	for _, f := range frames {
		if err = r.admit(); err != nil { //coollint:allow lockhold -- backpressure by design: a sender waits under sendMu while paused stages are full; what resumes them never takes sendMu
			break
		}
		if err = r.downFrom(r.down, 0, wrapBorrowed(f)); err != nil {
			break
		}
	}
	if err == nil {
		err = r.pushWire()
	}
	if err == nil {
		err = r.settle() //coollint:allow lockhold -- a sender stays under sendMu only to read ACKs nobody else reads; what resumes the stage never takes sendMu
	}
	err = r.finishSend(err)
	r.sendMu.Unlock()
	return err
}

// Recv returns the next application payload delivered by the stack. The
// caller is the receive executor: it reads the transport and runs the up
// chain run-to-completion. After shutdown it drains pending packets, then
// returns io.EOF (peer closed) or the runtime's first error.
//
//coollint:hotpath application receive entry; runs the up chain inline
func (r *Runtime) Recv() ([]byte, error) {
	r.readers.Add(1)
	r.readMu.Lock()
	var out []byte
	var err error
	for {
		if p := r.takeScratch(); p != nil {
			out = r.detach(p)
			break
		}
		if r.stopped() || r.recvStepLocked() != nil { //coollint:allow lockhold -- ctrl completion sends land in a cap-1 buffered slot with a single waiter; never blocks
			err = r.closeErr()
			break
		}
	}
	r.readMu.Unlock()
	r.readers.Add(-1)
	r.wakeSender()
	return out, err
}

// takeScratch pops the next application-bound packet (readMu held).
func (r *Runtime) takeScratch() *Packet {
	if r.scratchHead >= len(r.scratch) {
		return nil
	}
	p := r.scratch[r.scratchHead]
	r.scratch[r.scratchHead] = nil
	r.scratchHead++
	if r.scratchHead == len(r.scratch) {
		r.scratch = r.scratch[:0]
		r.scratchHead = 0
	}
	return p
}

// recvStepLocked reads one transport frame under readMu and runs it up
// the stack (control frames dispatch to the reconfiguration handler).
// Errors are already recorded when it returns non-nil; the caller
// surfaces closeErr.
//
//coollint:hotpath inline receive step
func (r *Runtime) recvStepLocked() error {
	msg, err := r.tch.ReadMessage()
	if err != nil {
		r.readFailed(err)
		return err
	}
	off := 0
	if kind, ok := ctrlKind(msg); ok {
		if kind != ctrlEscape {
			r.handleCtrl(kind, msg)
			transport.PutBuffer(msg)
			return nil
		}
		off = ctrlHdrLen
	}
	p := wrapMessage(msg, off)
	if herr := r.upFrom(r.up, len(r.up)-1, p); herr != nil {
		if errors.Is(herr, ErrStopped) {
			return herr
		}
		r.fail(herr)
		return herr
	}
	return nil
}

// readFailed maps a transport read error: peer close is a graceful EOF,
// anything else poisons the runtime.
func (r *Runtime) readFailed(err error) {
	if errors.Is(err, io.EOF) || errors.Is(err, transport.ErrClosed) {
		r.fail(io.EOF)
	} else {
		r.fail(fmt.Errorf("dacapo: transport read: %w", err))
	}
}

// detach hands a packet's payload to the application. A payload that
// still starts at its buffer's base (nothing was stripped from the front)
// transfers the arena buffer itself — zero copy; otherwise the payload is
// copied into a fresh arena buffer so the original's base pointer stays
// intact for the pool ledger. Either way the caller recycles via
// transport.PutBuffer.
//
//coollint:hotpath receive hand-off to the application
func (r *Runtime) detach(p *Packet) []byte {
	if p.owned && p.off == 0 {
		out := p.buf[:p.end]
		p.owned = false
		putPacket(p)
		return out
	}
	n := p.Len()
	b := bufpool.Get(n)
	out := b[:n]
	copy(out, p.Bytes())
	putPacket(p)
	return out
}

func (r *Runtime) recordErr(err error) {
	e := err
	r.firstErr.CompareAndSwap(nil, &e)
}

// fail records err as the runtime's first error (unless one is recorded
// already), stops the runtime and closes the transport.
func (r *Runtime) fail(err error) {
	r.recordErr(err)
	r.stopOnce.Do(func() {
		close(r.stop)
		r.tch.Close()
	})
}

func (r *Runtime) closeErr() error {
	if e := r.firstErr.Load(); e != nil {
		return *e
	}
	return ErrStopped
}

// Close stops the runtime, closes the transport channel, releases every
// packet still inside the runtime and runs the module Stop hooks.
func (r *Runtime) Close() error {
	r.fail(ErrStopped)
	r.closeOnce.Do(r.teardown)
	return nil
}

// teardown quiesces the executors, releases every packet still inside the
// runtime and runs the Stop hooks of all live module generations. A
// blocking stage is stopped under its lock, so a timer that fires later
// finds the runtime stopped and does nothing.
func (r *Runtime) teardown() {
	// Lock order readMu -> sendMu, matching the control-frame reply path.
	r.readMu.Lock()
	defer r.readMu.Unlock()
	r.sendMu.Lock()
	defer r.sendMu.Unlock()

	for _, p := range r.scratch[r.scratchHead:] {
		putPacket(p)
	}
	r.scratch = r.scratch[:0]
	r.scratchHead = 0

	stopGen := func(stages []*stage) {
		for _, s := range stages {
			if !s.started {
				continue
			}
			s.started = false
			if s.blocking {
				s.mu.Lock()
				s.releaseHeld()
			}
			if err := s.mod.Stop(s.ctx); err != nil {
				r.recordErr(fmt.Errorf("dacapo: stop %s: %w", s.mod.Name(), err))
			}
			if s.blocking {
				s.mu.Unlock()
			}
		}
	}
	stopGen(r.down)
	stopGen(r.up)
	r.reconfigTeardown(stopGen)

	// Wait out a write in progress (the transport is closed, so it fails
	// fast) and drop what is still queued.
	r.writeMu.Lock()
	r.wqMu.Lock()
	releasePackets(r.wq)
	r.wq = r.wq[:0]
	if r.flushTimer != nil {
		r.flushTimer.Stop()
	}
	r.wqMu.Unlock()
	r.writeMu.Unlock()
}

// releaseHeld drops everything a blocking stage holds: queued packets,
// up emissions, posted events and the armed timer (mu held).
func (s *stage) releaseHeld() {
	for _, b := range [][]*Packet{s.pending[s.head:], s.up, s.handUp} {
		releasePackets(b)
	}
	s.pending, s.head, s.up, s.handUp = nil, 0, nil, nil
	s.events = nil
	s.ctx.cancelTimer()
}

// Err returns the first fatal error observed by the runtime, if any.
func (r *Runtime) Err() error {
	if e := r.firstErr.Load(); e != nil && !errors.Is(*e, ErrStopped) && !errors.Is(*e, io.EOF) {
		return *e
	}
	return nil
}

// ModuleStats is a monitoring snapshot for one module (the management
// component's monitoring duty).
type ModuleStats struct {
	Name        string
	DownPackets uint64
	DownBytes   uint64
	UpPackets   uint64
	UpBytes     uint64
	Drops       uint64
}

// Stats snapshots per-module counters, ordered from A side to T side.
// Counters of module generations retired by a mid-stream reconfiguration
// are retained, so totals stay monotonic across splices.
func (r *Runtime) Stats() []ModuleStats {
	r.statsLock.Lock()
	defer r.statsLock.Unlock()
	out := make([]ModuleStats, 0, len(r.retired)+len(r.statsStages))
	out = append(out, r.retired...)
	for _, s := range r.statsStages {
		out = append(out, snapshotStats(s))
	}
	return out
}

func snapshotStats(s *stage) ModuleStats {
	c := s.ctx
	return ModuleStats{
		Name:        s.mod.Name(),
		DownPackets: atomic.LoadUint64(&c.downPkts),
		DownBytes:   atomic.LoadUint64(&c.downBytes),
		UpPackets:   atomic.LoadUint64(&c.upPkts),
		UpBytes:     atomic.LoadUint64(&c.upBytes),
		Drops:       atomic.LoadUint64(&c.drops),
	}
}
