package proto

import (
	"errors"
	"sync"
	"testing"
)

func TestDispatcherRoundTrip(t *testing.T) {
	d := NewDispatcher()
	got := make(chan string, 1)
	id, err := d.Register(func(resp []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		// resp is only valid during the callback; copy out.
		got <- string(resp)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Feed(AppendMessage(nil, Message{ID: id, Payload: []byte("pong")})); err != nil {
		t.Fatal(err)
	}
	if r := <-got; r != "pong" {
		t.Fatalf("got %q", r)
	}
	if d.Pending() != 0 {
		t.Fatal("request still pending after dispatch")
	}
}

// Non-OK v2 statuses surface as typed *StatusError.
func TestDispatcherStatusError(t *testing.T) {
	d := NewDispatcher()
	got := make(chan error, 1)
	id, err := d.Register(func(resp []byte, err error) { got <- err })
	if err != nil {
		t.Fatal(err)
	}
	frame := AppendMessage(nil, Message{Ver: 2, ID: id, Status: StatusShed, Payload: []byte("busy")})
	if err := d.Feed(frame); err != nil {
		t.Fatal(err)
	}
	var se *StatusError
	if err := <-got; !errors.As(err, &se) || se.Code != StatusShed || se.Msg != "busy" {
		t.Fatalf("want StatusShed StatusError, got %v", err)
	}
}

func TestDispatcherUnknownIDDropped(t *testing.T) {
	d := NewDispatcher()
	if err := d.Feed(AppendMessage(nil, Message{ID: 999, Payload: []byte("late")})); err != nil {
		t.Fatal(err)
	}
	if d.Pending() != 0 {
		t.Fatal("no pending expected")
	}
}

func TestDispatcherCloseFailsPending(t *testing.T) {
	d := NewDispatcher()
	errCh := make(chan error, 2)
	for i := 0; i < 2; i++ {
		if _, err := d.Register(func(_ []byte, err error) { errCh <- err }); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	d.Close() // idempotent
	for i := 0; i < 2; i++ {
		if err := <-errCh; !errors.Is(err, ErrDispatcherClosed) {
			t.Fatalf("want ErrDispatcherClosed, got %v", err)
		}
	}
	if _, err := d.Register(func([]byte, error) {}); !errors.Is(err, ErrDispatcherClosed) {
		t.Fatal("register after close must fail")
	}
}

func TestDispatcherPartialFrames(t *testing.T) {
	d := NewDispatcher()
	got := make(chan string, 1)
	id, _ := d.Register(func(resp []byte, err error) { got <- string(resp) })
	frame := AppendMessage(nil, Message{ID: id, Payload: []byte("split")})
	for _, b := range frame {
		if err := d.Feed([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	if r := <-got; r != "split" {
		t.Fatalf("got %q", r)
	}
}

func TestDispatcherMalformedStream(t *testing.T) {
	d := NewDispatcher()
	bad := make([]byte, HeaderSize)
	bad[3] = 0x7f
	if err := d.Feed(bad); err == nil {
		t.Fatal("malformed stream must error")
	}
}

// Callbacks may re-enter Register (pipelined request chains) without
// deadlocking.
func TestDispatcherReentrantCallback(t *testing.T) {
	d := NewDispatcher()
	done := make(chan struct{})
	id1, _ := d.Register(func(resp []byte, err error) {
		if _, err := d.Register(func([]byte, error) {}); err != nil {
			t.Error(err)
		}
		close(done)
	})
	if err := d.Feed(AppendMessage(nil, Message{ID: id1})); err != nil {
		t.Fatal(err)
	}
	<-done
	if d.Pending() != 1 {
		t.Fatalf("pending %d, want the re-registered request", d.Pending())
	}
}

func TestDispatcherConcurrent(t *testing.T) {
	d := NewDispatcher()
	const n = 200
	var wg sync.WaitGroup
	ids := make(chan uint64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		id, err := d.Register(func(resp []byte, err error) {
			if err == nil {
				wg.Done()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		ids <- id
	}
	close(ids)
	var feeders sync.WaitGroup
	for g := 0; g < 4; g++ {
		feeders.Add(1)
		go func() {
			defer feeders.Done()
			for id := range ids {
				if err := d.Feed(AppendMessage(nil, Message{ID: id})); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	feeders.Wait()
	wg.Wait()
	if d.Pending() != 0 {
		t.Fatalf("pending %d after all responses", d.Pending())
	}
}
