package modules

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"

	"cool/internal/dacapo"
)

// seqNum prepends a 64-bit sequence number on the way down; on the way up
// it suppresses duplicates and counts gaps. It realises the sequencing
// protocol function (duplicate filtering and loss visibility) without
// retransmission.
type seqNum struct {
	dacapo.BaseModule

	next     uint64 // next outbound sequence number
	expected uint64 // next inbound sequence number
	gaps     uint64 // observed missing packets
}

func newSeqNum(dacapo.Args) (dacapo.Module, error) { return &seqNum{}, nil }

func (m *seqNum) Name() string { return "seqnum" }

const seqHdrLen = 8

func (m *seqNum) HandleDown(ctx *dacapo.Context, p *dacapo.Packet) error {
	hdr := p.Prepend(seqHdrLen)
	binary.BigEndian.PutUint64(hdr, m.next)
	m.next++
	return ctx.EmitDown(p)
}

func (m *seqNum) HandleUp(ctx *dacapo.Context, p *dacapo.Packet) error {
	if p.Len() < seqHdrLen {
		ctx.Drop(p)
		return nil
	}
	seq := binary.BigEndian.Uint64(p.Bytes())
	if err := p.StripFront(seqHdrLen); err != nil {
		return err
	}
	switch {
	case seq < m.expected: // duplicate or reordered: suppress
		ctx.Drop(p)
		return nil
	case seq > m.expected: // gap: account for the missing packets
		m.gaps += seq - m.expected
	}
	m.expected = seq + 1
	return ctx.EmitUp(p)
}

// xorCipher realises the en-/decryption protocol function with a toy
// repeating-key XOR stream: enough to demonstrate that a confidentiality
// module slots into the graph and that both directions invert each other.
// It is NOT cryptographically secure and is documented as a stand-in.
type xorCipher struct {
	dacapo.BaseModule

	// stream is the key repeated to a whole number of copies of at least
	// xorStreamMin octets, so every stream-sized chunk of a payload starts
	// at key phase 0 and the XOR runs as a word-wide kernel.
	stream []byte
}

// xorStreamMin is the least keystream length: long enough that a 64 KiB
// payload takes a handful of kernel calls.
const xorStreamMin = 4096

func newXORCipher(args dacapo.Args) (dacapo.Module, error) {
	key := []byte(args["key"])
	if len(key) == 0 {
		key = []byte("dacapo-default-key")
	}
	return &xorCipher{stream: expandKey(key, xorStreamMin)}, nil
}

// expandKey repeats key into a keystream of the smallest whole number of
// copies that is at least min octets long.
func expandKey(key []byte, min int) []byte {
	return bytes.Repeat(key, (min+len(key)-1)/len(key))
}

// xorStream XORs data in place with the keystream, which restarts at every
// stream-sized chunk of data.
func xorStream(data, stream []byte) {
	for len(data) > 0 {
		n := subtle.XORBytes(data, data, stream)
		data = data[n:]
	}
}

func (m *xorCipher) Name() string { return "xorcipher" }

func (m *xorCipher) HandleDown(ctx *dacapo.Context, p *dacapo.Packet) error {
	xorStream(p.WritableBytes(), m.stream)
	return ctx.EmitDown(p)
}

func (m *xorCipher) HandleUp(ctx *dacapo.Context, p *dacapo.Packet) error {
	xorStream(p.WritableBytes(), m.stream)
	return ctx.EmitUp(p)
}
