package dacapo

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"cool/internal/cdr"
	"cool/internal/qos"
)

// Mid-stream reconfiguration: renegotiating a running connection's module
// graph without tearing the connection down — the "dynamic configuration"
// the Da CaPo name promises. The initiator proposes a new Spec over the
// data channel itself; once both sides have built and started the new
// module generation, each direction is spliced at a frame boundary:
//
//	initiator                      responder
//	PROPOSE(gen, spec, qos)  --->  validate, policy, build, start
//	                         <---  ACCEPT(gen, granted)   (or NACK)
//	COMMIT(gen) + swap down  --->  swap up, mirror COMMIT + swap down
//	swap up on mirror COMMIT <---
//
// Because each peer swaps its down direction in the same critical section
// that emits its COMMIT, and swaps its up direction the moment it reads a
// COMMIT, every data frame is processed by the configuration it was sent
// under — the splice drops and duplicates nothing. Packets already inside
// the old generation finish there: contexts pin their own stage slice.
//
// Only fully inline graphs reconfigure in place (a graph with blocking
// stages NACKs the proposal); the management layer falls back to
// re-dialling for those.
// If both ends propose simultaneously each side is busy with its own
// attempt and NACKs the peer's — both abort, the connection stays up, and
// the callers retry or redial.
//
// Control frames share the wire with data frames via an escape prefix: a
// frame starting with the 8-octet control magic is a control frame; a data
// frame that happens to start with the magic is wrapped in an escape
// header on the way out and unwrapped on the way in, so transparency holds
// for arbitrary payloads.

// ctrlMagic prefixes every control frame. Chosen so no GIOP frame (which
// starts with "GIOP") and essentially no random payload collides.
var ctrlMagic = [8]byte{0xDA, 0xCA, 0x90, 0x0D, 0x5C, 0xF1, 0x9B, 0xE7}

// ctrlHdrLen is the magic plus the kind octet.
const ctrlHdrLen = 9

// Control frame kinds.
const (
	ctrlEscape  = byte(0) // escaped data frame; payload follows the header
	ctrlPropose = byte(1)
	ctrlAccept  = byte(2)
	ctrlNack    = byte(3)
	ctrlCommit  = byte(4)
)

// defaultReconfigTimeout bounds how long an initiator waits for the
// splice to complete before declaring the connection poisoned.
const defaultReconfigTimeout = 5 * time.Second

// Reconfiguration errors.
var (
	// ErrReconfigUnsupported reports a graph that cannot be respliced in
	// place (blocking modules on either side).
	ErrReconfigUnsupported = errors.New("dacapo: stack not reconfigurable in place")
	// ErrReconfigRejected carries the peer's NACK reason.
	ErrReconfigRejected = errors.New("dacapo: reconfiguration rejected by peer")
	// ErrReconfigBusy reports an attempt while another is in flight.
	ErrReconfigBusy = errors.New("dacapo: reconfiguration already in progress")
)

// hasCtrlMagic reports whether a frame starts with the control magic.
//
//coollint:hotpath control-frame detection on every frame crossing the wire
func hasCtrlMagic(b []byte) bool {
	if len(b) < len(ctrlMagic) {
		return false
	}
	for i, c := range ctrlMagic {
		if b[i] != c {
			return false
		}
	}
	return true
}

// ctrlKind classifies an inbound frame: (kind, true) for control frames.
//
//coollint:hotpath inbound frame classification
func ctrlKind(msg []byte) (byte, bool) {
	if len(msg) < ctrlHdrLen || !hasCtrlMagic(msg) {
		return 0, false
	}
	return msg[ctrlHdrLen-1], true
}

// escapeWrap prefixes a colliding data frame with an escape header.
func escapeWrap(p *Packet) {
	hdr := p.Prepend(ctrlHdrLen)
	copy(hdr, ctrlMagic[:])
	hdr[ctrlHdrLen-1] = ctrlEscape
}

func encodeCtrl(kind byte, fn func(*cdr.Encoder)) []byte {
	enc := cdr.NewEncoder(cdr.BigEndian)
	enc.WriteOctets(ctrlMagic[:])
	enc.WriteOctet(kind)
	if fn != nil {
		fn(enc)
	}
	return enc.Bytes()
}

func ctrlDecoder(msg []byte) *cdr.Decoder {
	dec := cdr.NewDecoder(msg, cdr.BigEndian)
	dec.ReadOctets(ctrlHdrLen)
	return dec
}

type reconfigResult struct {
	granted qos.Set
	err     error
}

// reconfigState is one in-flight reconfiguration attempt: the new module
// generation, built and started but not yet spliced.
type reconfigState struct {
	gen     uint32
	spec    Spec
	granted qos.Set
	stages  []*stage
	// downSpliced marks an initiator that committed its down direction
	// and is waiting for the mirror COMMIT to splice up.
	downSpliced bool
	done        chan reconfigResult
}

// SetReconfigPolicy installs the admission policy consulted when the peer
// proposes a new configuration. nil means accept (AcceptAll).
func (r *Runtime) SetReconfigPolicy(p AcceptPolicy) {
	r.rcMu.Lock()
	r.rcPolicy = p
	r.rcMu.Unlock()
}

// OnReconfigured registers a callback invoked after a splice completes
// (either role) with the new spec and the granted QoS. Callbacks run on
// the receive path and must not call back into Recv or Close.
func (r *Runtime) OnReconfigured(fn func(Spec, qos.Set)) {
	r.rcMu.Lock()
	r.rcOnSplice = append(r.rcOnSplice, fn)
	r.rcMu.Unlock()
}

// ReconfigCounts returns the reconfiguration attempt counters.
func (r *Runtime) ReconfigCounts() (started, completed, aborted uint64) {
	return r.rcStarted.Load(), r.rcCompleted.Load(), r.rcAborted.Load()
}

// prepareGeneration builds and starts a new inline module generation for
// spec. On failure every started module is stopped again.
func (r *Runtime) prepareGeneration(spec Spec) ([]*stage, error) {
	modules, err := spec.build(r.reg)
	if err != nil {
		return nil, err
	}
	for _, m := range modules {
		if _, blocking := m.(Blocker); blocking {
			return nil, fmt.Errorf("%w: module %s is blocking", ErrReconfigUnsupported, m.Name())
		}
	}
	stages := r.buildStages(modules)
	for i, s := range stages {
		if err := s.mod.Start(s.ctx); err != nil {
			stopStages(stages[:i])
			return nil, fmt.Errorf("dacapo: start %s: %w", s.mod.Name(), err)
		}
		s.started = true
	}
	return stages, nil
}

func stopStages(stages []*stage) {
	for _, s := range stages {
		if s.started {
			_ = s.mod.Stop(s.ctx)
		}
	}
}

// Reconfigure renegotiates the module graph of a running connection in
// place: it proposes spec and requested QoS to the peer and, on
// acceptance, splices the new graph into both directions without dropping
// or duplicating a single packet. The caller must keep a receiver active
// (Recv processes the control handshake). A timeout poisons the runtime —
// the connection state is then unknown and the caller re-dials.
func (r *Runtime) Reconfigure(spec Spec, requested qos.Set) (qos.Set, error) {
	if len(r.locked) > 0 {
		return nil, fmt.Errorf("%w: stack has blocking modules", ErrReconfigUnsupported)
	}
	if r.stopped() {
		return nil, r.closeErr()
	}
	if err := spec.Validate(r.reg); err != nil {
		return nil, err
	}
	r.rcMu.Lock()
	if r.rcInit != nil || r.rcResp != nil {
		r.rcMu.Unlock()
		return nil, ErrReconfigBusy
	}
	stages, err := r.prepareGeneration(spec)
	if err != nil {
		r.rcMu.Unlock()
		return nil, err
	}
	r.rcGen++
	st := &reconfigState{
		gen:    r.rcGen,
		spec:   spec,
		stages: stages,
		done:   make(chan reconfigResult, 1),
	}
	r.rcInit = st
	r.rcMu.Unlock()
	r.rcStarted.Add(1)

	frame := encodeCtrl(ctrlPropose, func(enc *cdr.Encoder) {
		enc.WriteULong(st.gen)
		spec.Encode(enc)
		qos.EncodeSet(enc, requested)
	})
	r.sendMu.Lock()
	err = r.tch.WriteMessage(frame)
	r.sendMu.Unlock()
	if err != nil {
		r.rcMu.Lock()
		if r.rcInit == st {
			r.rcInit = nil
		}
		r.rcMu.Unlock()
		stopStages(st.stages)
		r.rcAborted.Add(1)
		err = fmt.Errorf("dacapo: send reconfig proposal: %w", err)
		r.fail(err)
		return nil, err
	}

	return r.driveHandshake(st)
}

// driveHandshake waits for an initiated reconfiguration to settle.
// Control frames arrive on the receive path, so when no receiver is
// active the initiator runs the receive steps itself (data frames it
// picks up land in scratch for the next Recv); when a receiver holds
// readMu, it polls the done slot while that receiver makes progress. A
// watchdog poisons the runtime if the peer stalls — the splice state
// would be unknowable.
func (r *Runtime) driveHandshake(st *reconfigState) (qos.Set, error) {
	var settled atomic.Bool
	watchdog := time.AfterFunc(r.rcTimeout, func() {
		if settled.Load() {
			return
		}
		r.fail(fmt.Errorf("dacapo: reconfiguration timed out after %v", r.rcTimeout))
	})
	defer func() {
		settled.Store(true)
		watchdog.Stop()
	}()
	finish := func(res reconfigResult) (qos.Set, error) {
		if res.err != nil {
			return nil, res.err
		}
		return res.granted, nil
	}
	var tick *time.Ticker
	defer func() {
		if tick != nil {
			tick.Stop()
		}
	}()
	for {
		select {
		case res := <-st.done:
			return finish(res)
		case <-r.stop:
			return nil, r.closeErr()
		default:
		}
		if r.readMu.TryLock() {
			err := r.recvStepLocked()
			r.readMu.Unlock()
			if err != nil {
				// The failing step may have been the one that settled us.
				select {
				case res := <-st.done:
					return finish(res)
				default:
				}
				return nil, r.closeErr()
			}
			continue
		}
		if tick == nil {
			tick = time.NewTicker(2 * time.Millisecond)
		}
		select {
		case res := <-st.done:
			return finish(res)
		case <-r.stop:
			return nil, r.closeErr()
		case <-tick.C:
		}
	}
}

// handleCtrl dispatches a control frame on the receive path (called
// under readMu). Reconfigurations are rare relative to data traffic, so
// the whole dispatch is off the allocation-audit spine.
//
//coollint:coldpath control-plane dispatch; runs once per reconfiguration
func (r *Runtime) handleCtrl(kind byte, msg []byte) {
	dec := ctrlDecoder(msg)
	if len(r.locked) > 0 {
		r.refuseProposal(kind, dec)
		return
	}
	switch kind {
	case ctrlPropose:
		r.ctrlOnPropose(dec)
	case ctrlAccept:
		r.ctrlOnAccept(dec)
	case ctrlNack:
		r.ctrlOnNack(dec)
	case ctrlCommit:
		r.ctrlOnCommit(dec)
	default:
		r.fail(fmt.Errorf("dacapo: unknown control frame kind %d", kind))
	}
}

// refuseProposal is the control handler of a graph with blocking stages:
// proposals are NACKed, since the graph cannot be respliced in place;
// stale ACCEPT/NACK/COMMIT frames after a failed attempt are dropped.
func (r *Runtime) refuseProposal(kind byte, dec *cdr.Decoder) {
	if kind != ctrlPropose {
		return
	}
	gen, err := dec.ReadULong()
	if err != nil {
		return
	}
	r.rcStarted.Add(1)
	r.rcAborted.Add(1)
	_ = r.sendCtrl(encodeCtrl(ctrlNack, func(enc *cdr.Encoder) {
		enc.WriteULong(gen)
		enc.WriteString("peer stack has blocking modules")
	}))
}

// sendCtrl writes a control frame under sendMu. Over a graph with blocking
// stages, whose receive path never writes, the frame joins the wire queue
// instead and leaves on the flush timer's goroutine.
func (r *Runtime) sendCtrl(frame []byte) error {
	if len(r.locked) > 0 {
		r.queueWire(wrapBorrowed(frame))
		r.kickWire(0)
		return nil
	}
	r.sendMu.Lock()
	err := r.tch.WriteMessage(frame)
	r.sendMu.Unlock()
	if err != nil {
		err = fmt.Errorf("dacapo: send control frame: %w", err)
		r.fail(err)
	}
	return err
}

func (r *Runtime) ctrlOnPropose(dec *cdr.Decoder) {
	gen, err := dec.ReadULong()
	if err != nil {
		r.fail(fmt.Errorf("%w: reconfig gen: %v", ErrBadSignal, err))
		return
	}
	spec, err := DecodeSpec(dec)
	if err != nil {
		r.fail(fmt.Errorf("%w: reconfig spec: %v", ErrBadSignal, err))
		return
	}
	requested, err := qos.DecodeSet(dec)
	if err != nil {
		r.fail(fmt.Errorf("%w: reconfig qos: %v", ErrBadSignal, err))
		return
	}
	r.rcStarted.Add(1)
	nack := func(reason string) {
		r.rcAborted.Add(1)
		_ = r.sendCtrl(encodeCtrl(ctrlNack, func(enc *cdr.Encoder) {
			enc.WriteULong(gen)
			enc.WriteString(reason)
		}))
	}
	if err := spec.Validate(r.reg); err != nil {
		nack(err.Error())
		return
	}
	r.rcMu.Lock()
	if r.rcInit != nil || r.rcResp != nil {
		r.rcMu.Unlock()
		nack("peer busy with another reconfiguration")
		return
	}
	policy := r.rcPolicy
	if policy == nil {
		policy = AcceptAll
	}
	granted, perr := policy(spec, requested)
	if perr != nil {
		r.rcMu.Unlock()
		nack(perr.Error())
		return
	}
	stages, serr := r.prepareGeneration(spec)
	if serr != nil {
		r.rcMu.Unlock()
		nack(serr.Error())
		return
	}
	r.rcResp = &reconfigState{gen: gen, spec: spec, granted: granted, stages: stages}
	r.rcMu.Unlock()
	if r.sendCtrl(encodeCtrl(ctrlAccept, func(enc *cdr.Encoder) {
		enc.WriteULong(gen)
		qos.EncodeSet(enc, granted)
	})) != nil {
		return // runtime already poisoned by sendCtrl
	}
}

func (r *Runtime) ctrlOnAccept(dec *cdr.Decoder) {
	gen, err := dec.ReadULong()
	if err != nil {
		r.fail(fmt.Errorf("%w: reconfig gen: %v", ErrBadSignal, err))
		return
	}
	granted, err := qos.DecodeSet(dec)
	if err != nil {
		r.fail(fmt.Errorf("%w: reconfig granted qos: %v", ErrBadSignal, err))
		return
	}
	r.rcMu.Lock()
	st := r.rcInit
	if st == nil || st.gen != gen || st.downSpliced {
		r.rcMu.Unlock()
		return // stale or duplicate ACCEPT
	}
	st.granted = granted
	st.downSpliced = true
	r.rcMu.Unlock()
	// Commit and splice the down direction in one critical section: every
	// frame sent before the COMMIT came from the old graph, every frame
	// after it from the new one.
	frame := encodeCtrl(ctrlCommit, func(enc *cdr.Encoder) { enc.WriteULong(gen) })
	r.sendMu.Lock()
	werr := r.tch.WriteMessage(frame)
	if werr == nil {
		r.down = st.stages
		r.downGen = gen
	}
	r.sendMu.Unlock()
	if werr != nil {
		r.fail(fmt.Errorf("dacapo: send reconfig commit: %w", werr))
	}
}

func (r *Runtime) ctrlOnNack(dec *cdr.Decoder) {
	gen, err := dec.ReadULong()
	if err != nil {
		r.fail(fmt.Errorf("%w: reconfig gen: %v", ErrBadSignal, err))
		return
	}
	reason, err := dec.ReadString()
	if err != nil {
		reason = "(no reason)"
	}
	r.rcMu.Lock()
	st := r.rcInit
	if st == nil || st.gen != gen || st.downSpliced {
		r.rcMu.Unlock()
		return
	}
	r.rcInit = nil
	r.rcMu.Unlock()
	r.rcAborted.Add(1)
	stopStages(st.stages)
	st.done <- reconfigResult{err: fmt.Errorf("%w: %s", ErrReconfigRejected, reason)}
}

func (r *Runtime) ctrlOnCommit(dec *cdr.Decoder) {
	gen, err := dec.ReadULong()
	if err != nil {
		r.fail(fmt.Errorf("%w: reconfig gen: %v", ErrBadSignal, err))
		return
	}
	r.rcMu.Lock()
	if st := r.rcResp; st != nil && st.gen == gen {
		r.rcResp = nil
		r.rcMu.Unlock()
		r.spliceResponder(st, gen)
		return
	}
	if st := r.rcInit; st != nil && st.gen == gen && st.downSpliced {
		r.rcInit = nil
		r.rcMu.Unlock()
		r.spliceInitiatorUp(st, gen)
		return
	}
	r.rcMu.Unlock()
}

// spliceResponder handles the initiator's COMMIT on the responder: the up
// direction splices immediately (the frame after the COMMIT was produced
// by the peer's new graph), the down direction splices together with the
// mirror COMMIT.
func (r *Runtime) spliceResponder(st *reconfigState, gen uint32) {
	old := r.up
	r.up = st.stages
	r.upGen = gen
	frame := encodeCtrl(ctrlCommit, func(enc *cdr.Encoder) { enc.WriteULong(gen) })
	r.sendMu.Lock()
	werr := r.tch.WriteMessage(frame)
	r.down = st.stages
	r.downGen = gen
	r.sendMu.Unlock()
	r.finishSplice(st, old)
	if werr != nil {
		r.fail(fmt.Errorf("dacapo: send reconfig commit: %w", werr))
	}
}

// spliceInitiatorUp handles the mirror COMMIT on the initiator: the down
// direction was spliced when our COMMIT left; now the up direction joins
// it and the handshake completes.
func (r *Runtime) spliceInitiatorUp(st *reconfigState, gen uint32) {
	old := r.up
	r.up = st.stages
	r.upGen = gen
	r.finishSplice(st, old)
	st.done <- reconfigResult{granted: st.granted}
}

// finishSplice retires the old generation: its counters fold into the
// monotonic totals, its modules stop, and the splice callbacks fire.
func (r *Runtime) finishSplice(st *reconfigState, old []*stage) {
	r.statsLock.Lock()
	for _, s := range old {
		r.retired = append(r.retired, snapshotStats(s))
	}
	r.statsStages = st.stages
	r.spec = st.spec
	r.statsLock.Unlock()
	stopStages(old)
	r.rcCompleted.Add(1)
	r.rcMu.Lock()
	cbs := make([]func(Spec, qos.Set), len(r.rcOnSplice))
	copy(cbs, r.rcOnSplice)
	r.rcMu.Unlock()
	for _, fn := range cbs {
		fn(st.spec, st.granted)
	}
}

// reconfigTeardown releases reconfiguration state at Close: generations
// that were built but never spliced stop here and count as aborted.
func (r *Runtime) reconfigTeardown(stopGen func([]*stage)) {
	r.rcMu.Lock()
	init, resp := r.rcInit, r.rcResp
	r.rcInit, r.rcResp = nil, nil
	r.rcMu.Unlock()
	if init != nil {
		r.rcAborted.Add(1)
		stopGen(init.stages)
	}
	if resp != nil {
		r.rcAborted.Add(1)
		stopGen(resp.stages)
	}
}
