package core

import (
	"sync"
	"testing"
	"time"

	"zygos/internal/bufpool"
	"zygos/internal/proto"
)

// nullWriter discards replies without retaining the frame batch, so the
// leak accounting below sees only the runtime's own buffer traffic.
type nullWriter struct{}

func (nullWriter) WriteReply(frame []byte) error { return nil }

// TestShutdownReleasesQueuedBuffers closes the runtime at the nastiest
// moment the teardown path has: transport readers parked on a full
// ingress ring, stolen activations mid-flight on remote workers, and
// ready connections queued with parsed-but-undelivered events. Every
// producer must unblock with errRuntimeClosed, Close must return, and
// the runtime's segment accounting must land on exactly zero — a
// residue means a pooled buffer was stranded in a ring, a remote op, or
// a blocked producer. Run under -race in CI: the whole close protocol is
// lock-free handoffs.
func TestShutdownReleasesQueuedBuffers(t *testing.T) {
	for round := 0; round < 3; round++ {
		// A slow handler keeps activations (many of them stolen — all
		// load is homed on one worker) in flight at close time and keeps
		// the tiny ingress ring full so producers park.
		handler := HandlerFunc(func(ctx *Ctx, c *Conn, m proto.Message) {
			time.Sleep(200 * time.Microsecond)
			ctx.Reply(m.Payload)
		})
		rt, err := New(Config{
			Cores:        4,
			Handler:      handler,
			IngressCap:   8,
			ParkInterval: 50 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		conns := connsWithHomeWriter(rt, 0, 8, func() ReplyWriter { return nullWriter{} })

		const producers = 8
		var wg sync.WaitGroup
		started := make(chan struct{})
		var startedOnce sync.Once
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				c := conns[p%len(conns)]
				var enc []byte
				// Push until the push itself fails: the point is to be
				// blocked inside IngressOwned (ring full, producer parked)
				// when Close lands.
				for i := uint64(0); ; i++ {
					enc = proto.AppendMessage(enc[:0], proto.Message{Ver: 2, ID: i, Payload: []byte("x")})
					seg := append(rt.GetSegment(len(enc)), enc...)
					if err := rt.IngressOwned(c, seg); err != nil {
						// Only the close error is acceptable.
						if err.Error() != "core: runtime is closed" {
							t.Errorf("producer %d: %v", p, err)
						}
						return
					}
					startedOnce.Do(func() { close(started) })
				}
			}(p)
		}

		// Let the ring fill and activations pile up, then pull the plug
		// mid-traffic.
		<-started
		time.Sleep(2 * time.Millisecond)
		rt.Close()
		wg.Wait()

		if live := rt.SegmentsLive(); live != 0 {
			t.Fatalf("round %d: %d segment buffers still live after Close (leaked in a ring, remote op, or blocked producer)", round, live)
		}
		for i, w := range rt.workers {
			if !w.quiescent() {
				t.Fatalf("round %d: worker %d not quiescent after Close", round, i)
			}
		}
		for i, c := range conns {
			if got := c.State(); got != StateIdle {
				t.Fatalf("round %d: conn %d in state %v after Close", round, i, got)
			}
			if n := c.pending(); n != 0 {
				t.Fatalf("round %d: conn %d still holds %d undiscarded events", round, i, n)
			}
		}
	}
}

// TestShutdownCycleDoesNotAccumulateBuffers runs full open/traffic/close
// cycles and checks the buffer accounting reaches a steady state: the
// runtime-owned segment count must return to exactly zero every cycle,
// and the process-wide pool checkout balance must not grow with traffic
// volume. (It may grow by a small per-cycle constant — a dying
// connection legitimately holds its parser block and TX scratch, and GC
// of the parse-buffer sync.Pool strands their accounting — so the
// assertion separates a per-request leak, which scales with the 256
// requests per cycle, from that fixed residue.)
func TestShutdownCycleDoesNotAccumulateBuffers(t *testing.T) {
	const perCycle = 256
	cycle := func() {
		rt, err := New(Config{Cores: 2, Handler: echoHandler(), IngressCap: 16})
		if err != nil {
			t.Fatal(err)
		}
		c := rt.NewConn(nullWriter{})
		for i := uint64(0); i < perCycle; i++ {
			if err := rt.Ingress(c, frame(i, "payload")); err != nil {
				t.Fatal(err)
			}
		}
		rt.Flush(5 * time.Second)
		rt.Close()
		if live := rt.SegmentsLive(); live != 0 {
			t.Fatalf("%d segment buffers still live after a clean cycle", live)
		}
	}
	cycle() // warm pools and lazily created scratch
	base := bufpool.Outstanding()
	const cycles = 3
	for i := 0; i < cycles; i++ {
		cycle()
	}
	if grew := bufpool.Outstanding() - base; grew > perCycle/4*cycles {
		t.Fatalf("pool accounting grew by %d buffers over %d cycles of %d requests (per-request buffer leak)", grew, cycles, perCycle)
	}
}

// connsWithHomeWriter is connsWithHome with a caller-chosen ReplyWriter.
func connsWithHomeWriter(rt *Runtime, home, nconns int, wr func() ReplyWriter) []*Conn {
	var out []*Conn
	for len(out) < nconns {
		c := rt.NewConn(wr())
		if c.Home() == home {
			out = append(out, c)
		}
	}
	return out
}
