package core

import (
	"testing"
	"time"

	"zygos/internal/proto"
)

// A subscription's retire hook runs exactly once, from whichever path
// retires it first, and at once when it is registered too late.
func TestPushSubOnRetire(t *testing.T) {
	rt := newTestRuntime(t, Config{Cores: 1, Handler: echoHandler()})
	counter := func() (func(), func() int) {
		n := 0
		return func() { n++ }, func() int { return n }
	}

	t.Run("unsubscribe", func(t *testing.T) {
		c := rt.NewConn(&captureWriter{})
		ps := c.Subscribe(1, 7, false, 0)
		if ps == nil {
			t.Fatal("Subscribe returned nil")
		}
		if c.Subscribe(1, 7, false, 0) != nil {
			t.Fatal("duplicate id must be refused")
		}
		f, runs := counter()
		ps.OnRetire(f)
		if runs() != 0 {
			t.Fatal("hook ran before retirement")
		}
		if c.Unsubscribe(1) != ps {
			t.Fatal("Unsubscribe did not return the subscription")
		}
		if c.Unsubscribe(1) != nil {
			t.Fatal("second Unsubscribe matched")
		}
		rt.CloseConn(c)
		if runs() != 1 {
			t.Fatalf("hook ran %d times, want 1", runs())
		}
	})

	t.Run("after close", func(t *testing.T) {
		c := rt.NewConn(&captureWriter{})
		ps := c.Subscribe(1, 7, false, 0)
		rt.CloseConn(c)
		f, runs := counter()
		ps.OnRetire(f)
		if runs() != 1 {
			t.Fatalf("hook registered after close ran %d times, want 1", runs())
		}
		if c.Subscribe(2, 7, false, 0) != nil {
			t.Fatal("Subscribe on a closed connection must return nil")
		}
	})

	t.Run("poison", func(t *testing.T) {
		c := rt.NewConn(&captureWriter{})
		ps := c.Subscribe(1, 7, false, 0)
		f, runs := counter()
		ps.OnRetire(f)
		bad := make([]byte, proto.HeaderSize)
		bad[3] = 0x7f // enormous length
		if err := rt.Ingress(c, bad); err != nil {
			t.Fatal(err)
		}
		if !rt.Flush(2 * time.Second) {
			t.Fatal("flush timed out")
		}
		if !c.Closed() {
			t.Fatal("malformed stream must poison the connection")
		}
		rt.CloseConn(c)
		if c.Unsubscribe(1) != nil {
			t.Fatal("a poisoned connection kept its subscription")
		}
		if runs() != 1 {
			t.Fatalf("hook ran %d times, want 1", runs())
		}
	})
	if got := rt.Stats().Subs; got != 0 {
		t.Fatalf("live subscriptions %d, want 0", got)
	}
}
