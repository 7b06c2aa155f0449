//go:build pooldebug

package dacapo_test

import (
	"strings"
	"testing"

	"cool/internal/bufpool"
	"cool/internal/dacapo"
	"cool/internal/transport"
)

// TestLockedStagesLeakNothing: traffic through window, irq and ratelimit
// stages — ACKs, retained retransmission copies, and packets still queued
// behind a throttled stage at Close — leaves the arena ledger empty once
// both runtimes are closed and the wire is drained.
func TestLockedStagesLeakNothing(t *testing.T) {
	for _, spec := range []dacapo.Spec{
		{Modules: []dacapo.ModuleSpec{{Name: "xorcipher"}, {Name: "window", Args: dacapo.Args{"window": "4"}}, {Name: "crc32"}}},
		{Modules: []dacapo.ModuleSpec{{Name: "irq"}}},
		// 80 kbit/s with a 1000-octet burst: most of the 20 sends are
		// still queued when the runtimes close.
		{Modules: []dacapo.ModuleSpec{{Name: "ratelimit", Args: dacapo.Args{"kbps": "80", "burst": "1000"}}}},
	} {
		t.Run(spec.String(), func(t *testing.T) {
			bufpool.DebugReset()
			a, b := pipePair(t)
			ra, rb := startOn(t, spec, a, b)
			const n, size = 20, 500
			received := make(chan struct{})
			go func() {
				defer close(received)
				if spec.Modules[0].Name != "ratelimit" {
					if err := receiveInOrder(rb, n, size); err != nil {
						t.Error(err)
					}
				}
			}()
			for i := 0; i < n; i++ {
				if err := ra.Send(seqPayload(i, size)); err != nil {
					t.Fatal(err)
				}
			}
			<-received
			ra.Close()
			rb.Close()
			for _, ch := range []transport.Channel{a, b} {
				for {
					msg, err := ch.ReadMessage()
					if err != nil {
						break
					}
					transport.PutBuffer(msg)
				}
			}
			if leaks := bufpool.Leaks(); len(leaks) != 0 {
				t.Fatalf("arena leaks after close:\n%s", strings.Join(leaks, "\n"))
			}
		})
	}
}
