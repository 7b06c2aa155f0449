package modules

import (
	"encoding/binary"
	"fmt"
	"time"

	"cool/internal/dacapo"
)

// ARQ mechanisms: irq and window, one go-back-N implementation. Frames
// carry a 5-octet trailer [type:1][seq:4] with type DATA or ACK, appended
// behind the payload like the checksums, so a delivered payload still
// starts at its buffer's base. Each module instance is full-duplex: it is
// the sender for its endpoint's outbound packets and the receiver for
// inbound ones, so a single stack supports request/reply traffic.

const (
	arqTrailerLen = 5
	arqData       = byte(0)
	arqAck        = byte(1)
)

// appendArq appends the ARQ trailer to p.
func appendArq(p *dacapo.Packet, typ byte, seq uint32) {
	var t [arqTrailerLen]byte
	t[0] = typ
	binary.BigEndian.PutUint32(t[1:], seq)
	p.Append(t[:])
}

// stripArq removes the ARQ trailer from p and returns it; ok is false for
// a packet too short to carry one.
func stripArq(p *dacapo.Packet) (typ byte, seq uint32, ok bool) {
	n := p.Len()
	if n < arqTrailerLen {
		return 0, 0, false
	}
	t := p.Bytes()[n-arqTrailerLen:]
	typ, seq = t[0], binary.BigEndian.Uint32(t[1:])
	return typ, seq, p.TrimBack(arqTrailerLen) == nil
}

// newIRQ builds the idle-repeat-request mechanism: stop-and-wait ARQ,
// which is the go-back-N window with room for one packet. Exactly one
// packet is outstanding; the next is accepted only after the ACK arrives.
// Its "ineffective flow control" is what collapses throughput in the
// paper's Figure 9 ("the low throughput for the IRQ C module is caused by
// the ineffective flow control of the idle-repeat-request protocol").
func newIRQ(args dacapo.Args) (dacapo.Module, error) {
	return buildWindow("irq", args, 1)
}

func sendAck(ctx *dacapo.Context, seq uint32) error {
	ack := ctx.Pool().GetSized(arqTrailerLen)
	appendArq(ack, arqAck, seq)
	return ctx.EmitDown(ack)
}

// window is the sliding-window go-back-N ARQ mechanism: up to `window`
// packets outstanding, cumulative ACKs, full-window retransmission on
// timeout. It keeps the pipe full where irq (a window of one) idles it.
type window struct {
	dacapo.BaseModule

	name       string
	rto        time.Duration
	maxRetries int
	size       uint32

	// sender state; ring holds the unacknowledged packets base..next-1
	// (at most size), base's in slot head.
	base, next uint32
	ring       []*dacapo.Packet
	head       uint32
	retries    int
	cancel     func()

	// receiver state
	recvNext uint32
}

// winTimeout is the retransmission timer's event; the runtime never
// delivers a cancelled one, so it carries nothing.
type winTimeout struct{}

func newWindow(args dacapo.Args) (dacapo.Module, error) {
	size, err := args.Int("window", 16)
	if err != nil {
		return nil, err
	}
	if size < 1 {
		return nil, fmt.Errorf("modules: window size %d < 1", size)
	}
	return buildWindow("window", args, size)
}

func buildWindow(name string, args dacapo.Args, size int) (dacapo.Module, error) {
	rto, err := args.Duration("rto", 100*time.Millisecond)
	if err != nil {
		return nil, err
	}
	retries, err := args.Int("retries", 20)
	if err != nil {
		return nil, err
	}
	return &window{
		name:       name,
		rto:        rto,
		maxRetries: retries,
		size:       uint32(size),
		ring:       make([]*dacapo.Packet, size),
	}, nil
}

func (m *window) Name() string { return m.name }

// Blocking marks window as a locked stage: it pauses intake when the
// window fills, arms timers, and ACKs down from its up path.
func (m *window) Blocking() {}

func (m *window) HandleDown(ctx *dacapo.Context, p *dacapo.Packet) error {
	appendArq(p, arqData, m.next)
	m.ring[m.slot(m.next)] = p
	m.next++
	if m.next-m.base >= m.size {
		ctx.PauseDown()
	}
	if m.cancel == nil {
		m.startTimer(ctx)
	}
	return ctx.EmitDownCopy(p)
}

func (m *window) HandleUp(ctx *dacapo.Context, p *dacapo.Packet) error {
	typ, seq, ok := stripArq(p)
	if !ok {
		ctx.Drop(p)
		return nil
	}
	switch typ {
	case arqAck:
		m.handleAck(ctx, seq)
		ctx.Drop(p)
		return nil
	case arqData:
		if seq == m.recvNext {
			m.recvNext++
			if err := sendAck(ctx, seq); err != nil {
				return err
			}
			// The peer's window fills after size frames: every half window
			// an ACK leaves at once, so the peer never waits out the flush
			// delay (irq, a window of one, flushes every ACK).
			if m.recvNext%max(m.size/2, 1) == 0 {
				ctx.Flush()
			}
			return ctx.EmitUp(p)
		}
		// Out of order (go-back-N receiver has no buffer): discard and
		// re-acknowledge the last in-order packet so the sender backs up.
		if m.recvNext > 0 {
			if err := sendAck(ctx, m.recvNext-1); err != nil {
				return err
			}
		}
		ctx.Drop(p)
		return nil
	default:
		ctx.Drop(p)
		return nil
	}
}

// handleAck processes a cumulative acknowledgement of every seq <= ack.
func (m *window) handleAck(ctx *dacapo.Context, ack uint32) {
	if ack-m.base >= m.next-m.base {
		return // stale or bogus: not within [base, next)
	}
	for ; m.base != ack+1; m.base++ {
		ctx.Pool().Put(m.ring[m.head])
		m.ring[m.head] = nil
		m.head = (m.head + 1) % m.size
	}
	m.retries = 0
	if m.base == m.next {
		m.stopTimer()
	} else {
		m.startTimer(ctx)
	}
	if m.next-m.base < m.size {
		ctx.ResumeDown()
	}
}

func (m *window) HandleEvent(ctx *dacapo.Context, ev any) error {
	if _, ok := ev.(winTimeout); !ok || m.base == m.next {
		return nil // nothing outstanding
	}
	m.retries++
	if m.retries > m.maxRetries {
		return fmt.Errorf("modules: %s: packet %d lost after %d retries", m.name, m.base, m.maxRetries)
	}
	// Go-back-N: retransmit the whole window.
	for s := m.base; s != m.next; s++ {
		if err := ctx.EmitDownCopy(m.ring[m.slot(s)]); err != nil {
			return err
		}
	}
	m.startTimer(ctx)
	return nil
}

func (m *window) Stop(ctx *dacapo.Context) error {
	m.stopTimer()
	for i, pkt := range m.ring {
		if pkt != nil {
			ctx.Pool().Put(pkt)
			m.ring[i] = nil
		}
	}
	return nil
}

// slot returns the ring slot of outstanding sequence number s.
func (m *window) slot(s uint32) uint32 { return (m.head + (s - m.base)) % m.size }

func (m *window) startTimer(ctx *dacapo.Context) {
	m.stopTimer()
	m.cancel = ctx.After(backoff(m.rto, m.retries), winTimeout{})
}

// backoff doubles the retransmission timeout per consecutive retry (capped
// at 32x) so a congested path drains instead of being hammered into a
// timeout storm.
func backoff(base time.Duration, retries int) time.Duration {
	shift := retries
	if shift > 5 {
		shift = 5
	}
	return base << uint(shift)
}

func (m *window) stopTimer() {
	if m.cancel != nil {
		m.cancel()
		m.cancel = nil
	}
}
