package zygos

import (
	"net"
	"testing"
	"time"
)

// A wire subscription's bus entry goes with its push ring: an
// UNSUBSCRIBE removes it before the ack, and a subscriber whose socket
// closes leaves no entry behind.
func TestWireSubscriptionRetiresBusEntry(t *testing.T) {
	s := newEchoServer(t, Config{Cores: 2})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	dial := func() *TCPClient {
		c, err := DialClient(l.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	noop := func(uint32, []byte) {}

	c := dial()
	defer c.Close()
	sub, err := c.Subscribe(41, FilterAll(), SubscribeOptions{}, noop)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.bus.Subscribers(41); n != 1 {
		t.Fatalf("bus entries after SUBSCRIBE = %d, want 1", n)
	}
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if n := s.bus.Subscribers(41); n != 0 {
		t.Fatalf("bus entries after UNSUBSCRIBE = %d, want 0", n)
	}
	if err := c.Unsubscribe(41, sub.ID()); err == nil {
		t.Fatal("a second UNSUBSCRIBE of the same id must fail")
	}

	gone := dial()
	for topic := uint16(42); topic < 44; topic++ {
		if _, err := gone.Subscribe(topic, FilterAll(), SubscribeOptions{}, noop); err != nil {
			t.Fatal(err)
		}
	}
	gone.Close()
	waitUntilTrue(t, 2*time.Second, func() bool {
		return s.bus.Subscribers(42) == 0 && s.bus.Subscribers(43) == 0
	}, "closed socket's bus entries retired")
	if n := s.Stats().PubSub.Subscriptions; n != 0 {
		t.Fatalf("live subscriptions = %d, want 0", n)
	}
}
