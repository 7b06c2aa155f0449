package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"time"

	"cool/internal/cdr"
	"cool/internal/dacapo"
	"cool/internal/giop"
	"cool/internal/obs"
	"cool/internal/qos"
	"cool/internal/transport"
)

// Layer rungs: each drives one layer directly through the pooled APIs the
// ORB itself uses, on the running workload's own inputs. They run after
// the traced pass, with the workload's ORBs shut down.

// rungMsg is one message of a workload's mix.
type rungMsg struct {
	body []byte
	qos  qos.Set // empty for a GIOP 1.0 request
}

// rungInputs are a workload's inputs as the rungs see them.
type rungInputs struct {
	msgs []rungMsg
	sets []qos.Set // the QoS sets the workload binds with
	// dacapoOff marks a workload whose traffic bypasses Da CaPo; its
	// Da CaPo and module figures then come from a Da CaPo rung.
	dacapoOff bool
}

// rungBudget bounds the time of each rung.
const rungBudget = 150 * time.Millisecond

func allocsNow() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// repeat runs f over the inputs round-robin until rungBudget passes and
// returns ns and heap allocations per call.
func repeat(n int, f func(i int)) (nsPer, allocsPer float64) {
	a0 := allocsNow()
	start := time.Now()
	calls := 0
	for time.Since(start) < rungBudget {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	el := time.Since(start)
	return float64(el.Nanoseconds()) / float64(calls), float64(allocsNow()-a0) / float64(calls)
}

func runRungs(out *outcome, in rungInputs, tr *tracer) error {
	// cdr: the pooled encoder, writing a request's arguments.
	ns, _ := repeat(len(in.msgs), func(i int) {
		enc := cdr.AcquireEncoder(false)
		enc.WriteULong(uint32(i))
		enc.WriteOctetSeq(in.msgs[i].body)
		cdr.ReleaseEncoder(enc)
	})
	out.layer["cdr.rung_encode_ns"] = metric{ns, "ns", len(in.msgs)}

	// giop: pooled marshal of the workload's requests (1.0 or 9.9), then
	// UnmarshalPooled/ReleaseMessage of the same frames.
	key := []byte("perfbench-key")
	frames := make([][]byte, len(in.msgs))
	var hdr giop.RequestHeader
	marshal := func(i int) []byte {
		m := in.msgs[i]
		v := giop.V1_0
		if len(m.qos) > 0 {
			v = giop.VQoS
		}
		hdr = giop.RequestHeader{RequestID: uint32(i), ResponseExpected: true, ObjectKey: key, Operation: "echo", QoS: m.qos}
		f, err := giop.MarshalRequest(v, false, &hdr, func(enc *cdr.Encoder) {
			enc.WriteULong(uint32(i))
			enc.WriteOctetSeq(m.body)
		})
		if err != nil {
			panic(err) // the rung's own requests are well formed
		}
		return f
	}
	mns, mallocs := repeat(len(in.msgs), func(i int) { giop.ReleaseFrame(marshal(i)) })
	for i := range frames {
		frames[i] = marshal(i)
	}
	var uerr error
	uns, uallocs := repeat(len(in.msgs), func(i int) {
		f := append(transport.GetBuffer(len(frames[i])), frames[i]...)
		m, err := giop.UnmarshalPooled(f)
		if err != nil {
			uerr = err
			transport.PutBuffer(f)
			return
		}
		giop.ReleaseMessage(m)
	})
	for _, f := range frames {
		giop.ReleaseFrame(f)
	}
	if uerr != nil {
		return fmt.Errorf("giop rung: %w", uerr)
	}
	out.layer["giop.marshal_ns"] = metric{mns, "ns", len(in.msgs)}
	out.layer["giop.unmarshal_ns"] = metric{uns, "ns", len(in.msgs)}
	out.layer["giop.allocs_per_msg"] = metric{mallocs + uallocs, "count", len(in.msgs)}

	// qos: bilateral negotiation against a servant capability plus Da CaPo
	// configuration over the declared link, for each of the workload's sets.
	capab, link := sessionCapability(), linkCap()
	ns, _ = repeat(len(in.sets), func(i int) {
		_, _ = qos.Negotiate(in.sets[i], capab) // NACK sets fail by design
		_, _, _ = dacapo.Configure(in.sets[i], link)
	})
	out.layer["qos.negotiate_ns"] = metric{ns, "ns", len(in.sets)}

	rtt, err := tcpRung(in.msgs)
	if err != nil {
		return fmt.Errorf("tcp rung: %w", err)
	}
	out.layer["transport.tcp_rtt_us"] = metric{rtt, "us", len(in.msgs)}

	if in.dacapoOff {
		if err := dacapoRung(out, in.msgs, tr); err != nil {
			return fmt.Errorf("dacapo rung: %w", err)
		}
	}
	return nil
}

// maxRTTs bounds the round trips of the tcp rung.
const maxRTTs = 1 << 16

// tcpRung measures raw tcp channel round trips with frames of the
// workload's request sizes, echoed by a peer goroutine; it returns the
// median in µs.
func tcpRung(msgs []rungMsg) (float64, error) {
	m := transport.NewTCPManager()
	l, err := m.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		ch, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer ch.Close()
		for i := 0; i < maxRTTs; i++ {
			p, err := ch.ReadMessage()
			if err != nil {
				done <- nil // the client closed
				return
			}
			err = ch.WriteMessage(p)
			transport.PutBuffer(p)
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	ch, err := m.Dial(l.Addr())
	if err != nil {
		return 0, err
	}
	var rtts []float64
	frame := make([]byte, 0, 80<<10)
	start := time.Now()
	for i := 0; i < maxRTTs && time.Since(start) < rungBudget; i++ {
		frame = append(frame[:0], make([]byte, 64)...) // a GIOP header's worth
		frame = append(frame, msgs[i%len(msgs)].body...)
		t0 := time.Now()
		if err := ch.WriteMessage(frame); err != nil {
			ch.Close()
			return 0, err
		}
		p, err := ch.ReadMessage()
		if err != nil {
			ch.Close()
			return 0, err
		}
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
		transport.PutBuffer(p)
	}
	ch.Close()
	if err := <-done; err != nil {
		return 0, err
	}
	sort.Float64s(rtts)
	return median(rtts), nil
}

// dacapoRung opens a decorated Da CaPo connection over loopback TCP with
// the reliable+encrypted stack (xorcipher, window, crc32), streams the
// workload's payloads through it, and closes it: the Da CaPo and module
// figures of a workload whose own traffic bypasses Da CaPo.
func dacapoRung(out *outcome, msgs []rungMsg, tr *tracer) error {
	mk := func() (*dManager, *obs.Registry, *side) {
		st := &side{wire: newWireStats(tr), dst: newDacapoStats(tr)}
		wire := newTManager(transport.NewTCPManager(), tr, st.wire, true)
		dm := dacapo.NewManager(wire, tracedLibrary(tr), nil, linkCap())
		reg := obs.NewRegistry()
		dm.Instrument(reg, obs.NewTracer())
		return &dManager{inner: dm, wire: wire, tr: tr, st: st.dst}, reg, st
	}
	srv, _, sst := mk()
	cli, creg, cst := mk()
	l, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	n := 4 * len(msgs)
	got := make(chan error, 1)
	go func() {
		ch, err := l.Accept()
		if err != nil {
			got <- err
			return
		}
		for i := 0; i < n; i++ {
			p, err := ch.ReadMessage()
			if err != nil {
				ch.Close()
				got <- err
				return
			}
			if len(p) != len(msgs[i%len(msgs)].body) {
				err = fmt.Errorf("message %d: %d bytes, sent %d", i, len(p), len(msgs[i%len(msgs)].body))
			}
			transport.PutBuffer(p)
			if err != nil {
				ch.Close()
				got <- err
				return
			}
		}
		got <- ch.Close()
	}()
	ch, err := cli.Dial(l.Addr())
	if err != nil {
		return err
	}
	if _, err := ch.SetQoSParameter(bulkSet(true)); err != nil {
		ch.Close()
		return err
	}
	for i := 0; i < n; i++ {
		if err := ch.WriteMessage(msgs[i%len(msgs)].body); err != nil {
			ch.Close()
			return err
		}
	}
	err = <-got
	ch.Close()
	if err != nil {
		return err
	}
	dacapoLayer(out, cst, sst, creg.Snapshot(), obs.Snapshot{}, 0, wireCount{})
	return nil
}
