package zygos

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"zygos/internal/proto"
	"zygos/internal/pubsub"
	"zygos/internal/tcpnet"
)

// waitUntilTrue polls cond until it returns true or the deadline passes.
func waitUntilTrue(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

// Subscribe → Publish → PUSH delivery over the in-process transport,
// with filter matching, unsubscribe, and stats accounting.
func TestPubSubEndToEndInproc(t *testing.T) {
	s := newEchoServer(t, Config{Cores: 2})
	c := s.NewClient()
	defer c.Close()

	var got atomic.Uint64
	var lastID atomic.Uint32
	sub, err := c.Subscribe(7, FilterAll(), SubscribeOptions{}, func(frameID uint32, payload []byte) {
		lastID.Store(frameID)
		if string(payload) != fmt.Sprintf("evt-%d", frameID) {
			t.Errorf("frame %d payload %q", frameID, payload)
		}
		got.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Topic() != 7 {
		t.Fatalf("Topic() = %d", sub.Topic())
	}

	for i := uint32(1); i <= 10; i++ {
		if n := s.Publish(7, i, []byte(fmt.Sprintf("evt-%d", i))); n != 1 {
			t.Fatalf("Publish matched %d subs", n)
		}
	}
	waitUntilTrue(t, 2*time.Second, func() bool { return got.Load() == 10 }, "10 pushes delivered")
	if lastID.Load() != 10 {
		t.Fatalf("last frame ID %d", lastID.Load())
	}

	// RPC traffic on the same connection still works.
	if resp, err := c.Call([]byte("still-rpc")); err != nil || string(resp) != "still-rpc" {
		t.Fatalf("RPC alongside subscription: %q %v", resp, err)
	}

	st := s.Stats().PubSub
	if st.Published < 10 || st.Delivered < 10 || st.Subscriptions != 1 {
		t.Fatalf("stats %+v", st)
	}

	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if err := sub.Unsubscribe(); err != nil { // idempotent
		t.Fatal(err)
	}
	if n := s.Publish(7, 11, []byte("evt-11")); n != 0 {
		t.Fatalf("publish after unsubscribe matched %d", n)
	}
	waitUntilTrue(t, time.Second, func() bool { return s.Stats().PubSub.Subscriptions == 0 }, "subscription retired")
}

// Exact/mask/range filters select frames on the wire path, not just in
// the bus unit tests.
func TestPubSubWireFilters(t *testing.T) {
	s := newEchoServer(t, Config{Cores: 2})
	c := s.NewClient()
	defer c.Close()

	var exact, masked, ranged atomic.Uint64
	if _, err := c.Subscribe(3, FilterExact(5), SubscribeOptions{}, func(id uint32, _ []byte) { exact.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe(3, FilterMask(0x100, 0xF00), SubscribeOptions{}, func(id uint32, _ []byte) { masked.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe(3, FilterRange(20, 29), SubscribeOptions{}, func(id uint32, _ []byte) { ranged.Add(1) }); err != nil {
		t.Fatal(err)
	}

	s.Publish(3, 5, []byte("x"))     // exact only
	s.Publish(3, 0x105, []byte("x")) // mask only
	s.Publish(3, 25, []byte("x"))    // range only
	s.Publish(3, 9999, []byte("x"))  // nobody

	waitUntilTrue(t, 2*time.Second, func() bool {
		return exact.Load() == 1 && masked.Load() == 1 && ranged.Load() == 1
	}, "each filter matched exactly its frame")
	// A FilterFunc subscription cannot travel on the wire.
	if _, err := c.Subscribe(3, FilterFunc(func(PushFrame) bool { return true }), SubscribeOptions{}, func(uint32, []byte) {}); err == nil {
		t.Fatal("FilterFunc over the wire must fail")
	}
}

// The TCP path: subscribe over a socket, receive pushes interleaved
// with RPC replies on the same connection.
func TestPubSubOverTCP(t *testing.T) {
	s := newEchoServer(t, Config{Cores: 2})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	c, err := DialClient(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var got atomic.Uint64
	sub, err := c.Subscribe(4, FilterAll(), SubscribeOptions{Buffer: 512}, func(id uint32, payload []byte) {
		got.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 100; i++ {
		s.Publish(4, i, []byte("tcp-push"))
		if i%10 == 0 {
			if resp, err := c.Call([]byte("rpc")); err != nil || string(resp) != "rpc" {
				t.Fatalf("interleaved RPC: %q %v", resp, err)
			}
		}
	}
	waitUntilTrue(t, 3*time.Second, func() bool { return got.Load() == 100 }, "100 TCP pushes delivered")
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
}

// A ConnManager logical caller can subscribe; pushes demultiplex by
// subscription ID alongside reply IDs on the shared socket.
func TestPubSubManagedClient(t *testing.T) {
	s := newEchoServer(t, Config{Cores: 2})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	m := NewConnManager(l.Addr().String(), 1, time.Second)
	defer m.Close()
	caller, err := m.NewCaller()
	if err != nil {
		t.Fatal(err)
	}
	mc := caller.(*ManagedClient)

	var got atomic.Uint64
	sub, err := mc.Subscribe(6, FilterAll(), SubscribeOptions{}, func(id uint32, payload []byte) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	// A second caller on the same socket keeps calling while pushes flow.
	other, err := m.NewCaller()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 50; i++ {
		s.Publish(6, i, []byte("managed"))
		if resp, err := other.Call([]byte("shared")); err != nil || string(resp) != "shared" {
			t.Fatalf("co-resident caller: %q %v", resp, err)
		}
	}
	waitUntilTrue(t, 3*time.Second, func() bool { return got.Load() == 50 }, "managed pushes delivered")
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
}

// The fair-queuing acceptance bound: a firehose subscription on the
// same connection as a closed-loop echo caller must not degrade the
// echo P99 more than 2x (plus a small floor absorbing scheduler noise).
func TestPushFairQueuing(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	s := newEchoServer(t, Config{Cores: 2})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	// Dial with a bounded receive buffer: the bound under test is the
	// server's egress fairness, so client-side kernel queueing (which
	// would buffer megabytes of push bytes ahead of the echo reply on
	// loopback) is capped to keep it out of the measurement.
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tc := nc.(*net.TCPConn)
	_ = tc.SetNoDelay(true)
	_ = tc.SetReadBuffer(128 << 10)
	c := &TCPClient{newClientBase(tcpnet.NewClientOn(nc))}
	defer c.Close()

	measureP99 := func(n int) time.Duration {
		lats := make([]time.Duration, 0, n)
		var buf []byte
		for i := 0; i < n; i++ {
			t0 := time.Now()
			resp, err := c.CallInto([]byte("echo-probe"), buf[:0])
			if err != nil {
				t.Fatalf("echo call: %v", err)
			}
			buf = resp
			lats = append(lats, time.Since(t0))
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[n*99/100]
	}

	// Warm up, then baseline P99 with no push traffic.
	measureP99(200)
	base := measureP99(1000)

	// Firehose subscription on the same connection: small ring,
	// drop-oldest, payload big enough to keep the egress busy.
	var got atomic.Uint64
	sub, err := c.Subscribe(9, FilterAll(), SubscribeOptions{Buffer: 256}, func(uint32, []byte) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	firehoseDone := make(chan struct{})
	go func() {
		defer close(firehoseDone)
		// Paced bursts, not a busy loop: ~1.2 GB/s offered is far more
		// than the subscription ring and the fairness-gated egress will
		// move — the ring keeps dropping — without monopolizing the CPU
		// on small machines, which would measure Go scheduler starvation
		// instead of egress fairness.
		payload := make([]byte, 4096)
		var i uint32
		for {
			select {
			case <-stop:
				return
			default:
			}
			for burst := 0; burst < 300; burst++ {
				i++
				s.Publish(9, i, payload)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	hot := measureP99(1000)
	close(stop)
	<-firehoseDone
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}

	if got.Load() == 0 {
		t.Fatal("firehose delivered nothing — test not exercising push egress")
	}
	limit := 2 * base
	if floor := 5 * time.Millisecond; limit < floor {
		limit = floor
	}
	if hot > limit {
		// Race instrumentation slows the client parse path an order of
		// magnitude, so the bound only holds uninstrumented; under race
		// the test still exercises the full concurrent machinery.
		if raceEnabled {
			t.Skipf("latency bound skipped under race: P99 %v > %v", hot, limit)
		}
		t.Fatalf("echo P99 under firehose %v exceeds bound %v (baseline %v)", hot, limit, base)
	}
	t.Logf("echo P99: baseline %v, under firehose %v (bound %v), pushes delivered %d, drops %d",
		base, hot, limit, got.Load(), s.Stats().PubSub.Dropped)
}

// rawSubscribe dials a raw TCP connection, sends a v4 SUBSCRIBE, and
// reads the ack — a subscriber that then never reads again, for
// backpressure tests.
func rawSubscribe(t *testing.T, addr string, topic uint16, policy uint8, qcap uint16) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := pubsub.AppendSubSpec(nil, pubsub.SubSpec{Policy: policy, QCap: qcap})
	if err != nil {
		t.Fatal(err)
	}
	frame := proto.AppendMessage(nil, proto.Message{Ver: 4, ID: 1, Method: topic, SubID: 77, Kind: proto.KindSubscribe, Payload: spec})
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	ack := make([]byte, proto.HeaderSizeV4)
	if _, err := io.ReadFull(nc, ack); err != nil {
		t.Fatalf("reading SUBSCRIBE ack: %v", err)
	}
	if ack[3] != proto.Magic4 {
		t.Fatalf("ack version byte %#x", ack[3])
	}
	return nc
}

// Drop-oldest must never block the publisher: a subscriber that stops
// reading entirely bounds its damage to its own ring, publishers keep
// running at full speed, and the evictions are counted.
func TestDropOldestNeverBlocksPublisher(t *testing.T) {
	s := newEchoServer(t, Config{Cores: 2})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)

	nc := rawSubscribe(t, l.Addr().String(), 12, uint8(DropOldest), 8)
	defer nc.Close()
	waitUntilTrue(t, 2*time.Second, func() bool { return s.Stats().PubSub.Subscriptions == 1 }, "subscription installed")

	// The peer never reads another byte. Publish far more than the ring
	// (8) and the socket could absorb; the publisher must finish fast.
	payload := make([]byte, 1024)
	start := time.Now()
	for i := uint32(0); i < 50000; i++ {
		s.Publish(12, i, payload)
	}
	elapsed := time.Since(start)
	if elapsed > 10*time.Second {
		t.Fatalf("publisher took %v — blocked on a stalled subscriber", elapsed)
	}
	st := s.Stats().PubSub
	if st.Dropped == 0 {
		t.Fatal("stalled subscriber produced no drops")
	}
	if st.Published < 50000 {
		t.Fatalf("published %d", st.Published)
	}
	t.Logf("50k publishes in %v with stalled subscriber: %d dropped, %d pushed", elapsed, st.Dropped, st.Pushed)
}

// The disconnect policy reaps a subscriber that cannot keep up: its
// connection closes and its subscription is unhooked from the bus.
func TestDisconnectPolicyReapsSlowSubscriber(t *testing.T) {
	s := newEchoServer(t, Config{Cores: 2})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)

	nc := rawSubscribe(t, l.Addr().String(), 13, uint8(Disconnect), 8)
	defer nc.Close()
	waitUntilTrue(t, 2*time.Second, func() bool { return s.Stats().PubSub.Subscriptions == 1 }, "subscription installed")

	payload := make([]byte, 4096)
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().PubSub.Subscriptions != 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow subscriber never reaped under disconnect policy")
		}
		for i := uint32(0); i < 1000; i++ {
			s.Publish(13, i, payload)
		}
	}
	// The reap unhooked the bus entry too: publishes now match nobody.
	waitUntilTrue(t, 2*time.Second, func() bool { return s.Publish(13, 0, payload) == 0 }, "bus entry unhooked")
}

// RelayTopic forwards pushes across a hop: frames published on a
// backend server reach a subscriber of the front server.
func TestRelayTopic(t *testing.T) {
	backend := newEchoServer(t, Config{Cores: 2})
	front := newEchoServer(t, Config{Cores: 2})

	bc := backend.NewClient()
	defer bc.Close()
	relay, err := RelayTopic(front, bc, 21, FilterAll(), SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Unsubscribe()

	fc := front.NewClient()
	defer fc.Close()
	var got atomic.Uint64
	if _, err := fc.Subscribe(21, FilterAll(), SubscribeOptions{}, func(id uint32, payload []byte) {
		if string(payload) == "behind-the-proxy" {
			got.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}

	for i := uint32(0); i < 20; i++ {
		backend.Publish(21, i, []byte("behind-the-proxy"))
	}
	waitUntilTrue(t, 3*time.Second, func() bool { return got.Load() == 20 }, "relayed pushes delivered")
}

// SubscribeLocal registers in-process delivery, including FilterFunc
// predicates the wire cannot carry.
func TestSubscribeLocalFuncFilter(t *testing.T) {
	s := newEchoServer(t, Config{Cores: 2})
	var got atomic.Uint64
	sub := s.SubscribeLocal(30, FilterFunc(func(f PushFrame) bool { return f.ID%2 == 0 }), func(f PushFrame) {
		got.Add(1)
	})
	defer sub.Unsubscribe()
	for i := uint32(0); i < 10; i++ {
		s.Publish(30, i, nil)
	}
	if got.Load() != 5 {
		t.Fatalf("predicate matched %d of 10", got.Load())
	}
}

// StreamStats publishes JSON snapshots on TopicStats while the topic
// has subscribers, and only one stream may run per server.
func TestStreamStats(t *testing.T) {
	s := newEchoServer(t, Config{Cores: 2})
	c := s.NewClient()
	defer c.Close()

	stop, err := s.StreamStats(5 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StreamStats(time.Second); err != ErrAlreadyStreaming {
		t.Fatalf("second stream: %v", err)
	}

	snapCh := make(chan []byte, 1)
	sub, err := c.Subscribe(TopicStats, FilterAll(), SubscribeOptions{}, func(id uint32, payload []byte) {
		select {
		case snapCh <- append([]byte(nil), payload...):
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Generate some traffic so the snapshot is non-trivial.
	if _, err := c.Call([]byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case raw := <-snapCh:
		var st Stats
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("snapshot not valid Stats JSON: %v\n%s", err, raw)
		}
		if st.PubSub.Subscriptions == 0 {
			t.Fatalf("snapshot shows no subscriptions: %+v", st.PubSub)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no stats push arrived")
	}
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	stop()
	stop() // idempotent
	// After stop, a new stream may start.
	stop2, err := s.StreamStats(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	stop2()
}

// Closing a client connection retires its server-side subscriptions:
// the bus stops matching and the live-subscription gauge returns to 0.
func TestConnCloseRetiresSubscriptions(t *testing.T) {
	s := newEchoServer(t, Config{Cores: 2})
	c := s.NewClient()
	if _, err := c.Subscribe(40, FilterAll(), SubscribeOptions{}, func(uint32, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if n := s.Publish(40, 1, []byte("x")); n != 1 {
		t.Fatalf("matched %d", n)
	}
	c.Close()
	waitUntilTrue(t, 2*time.Second, func() bool {
		return s.Stats().PubSub.Subscriptions == 0 && s.Publish(40, 2, []byte("x")) == 0
	}, "close retired the subscription")
}
