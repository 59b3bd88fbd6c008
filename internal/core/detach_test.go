package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"zygos/internal/proto"
)

// v2frame builds a v2 request frame.
func v2frame(id uint64, payload string) []byte {
	return proto.AppendMessage(nil, proto.Message{Ver: 2, ID: id, Payload: []byte(payload)})
}

// Detached completions resolved out of order must still be transmitted
// in request order: the TX sequencer holds them until their token's turn.
func TestDetachReplyOrdering(t *testing.T) {
	const n = 64
	var mu sync.Mutex
	pending := make(map[uint64]*Completion) // request ID -> handle
	handler := HandlerFunc(func(ctx *Ctx, c *Conn, m proto.Message) {
		if m.ID%2 == 0 {
			co := ctx.Detach()
			mu.Lock()
			pending[m.ID] = co
			mu.Unlock()
			return
		}
		ctx.Reply(m.Payload)
	})
	rt := newTestRuntime(t, Config{Cores: 4, Handler: handler})
	wr := &captureWriter{}
	c := rt.NewConn(wr)
	var stream []byte
	for i := uint64(0); i < n; i++ {
		stream = proto.AppendMessage(stream, proto.Message{Ver: 2, ID: i, Payload: []byte{byte(i)}})
	}
	if err := rt.Ingress(c, stream); err != nil {
		t.Fatal(err)
	}
	// Wait for every even request to detach.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := len(pending)
		mu.Unlock()
		if got == n/2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d detaches arrived", got, n/2)
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Complete the detached ones in reverse order, from foreign
	// goroutines: maximum reordering pressure on the sequencer.
	var wg sync.WaitGroup
	for id := uint64(0); id < n; id += 2 {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			time.Sleep(time.Duration(n-id) * 100 * time.Microsecond)
			mu.Lock()
			co := pending[id]
			mu.Unlock()
			if err := co.Reply([]byte{byte(id)}); err != nil {
				t.Errorf("complete %d: %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	if !rt.Flush(10 * time.Second) {
		t.Fatal("flush timed out")
	}
	msgs := wr.messages()
	if len(msgs) != n {
		t.Fatalf("got %d replies, want %d", len(msgs), n)
	}
	for i, m := range msgs {
		if m.ID != uint64(i) {
			t.Fatalf("reply %d has ID %d: detached replies reordered", i, m.ID)
		}
		if m.Ver != 2 {
			t.Fatalf("reply %d not v2-framed for a v2 request", i)
		}
	}
}

// Flush must wait for detached completions, and Stats must count them.
func TestFlushWaitsForDetached(t *testing.T) {
	release := make(chan *Completion, 1)
	handler := HandlerFunc(func(ctx *Ctx, c *Conn, m proto.Message) {
		release <- ctx.Detach()
	})
	rt := newTestRuntime(t, Config{Cores: 2, Handler: handler})
	wr := &captureWriter{}
	c := rt.NewConn(wr)
	if err := rt.Ingress(c, v2frame(1, "detach")); err != nil {
		t.Fatal(err)
	}
	co := <-release
	if rt.Flush(50 * time.Millisecond) {
		t.Fatal("flush must not succeed while a detached reply is pending")
	}
	if err := co.Reply([]byte("late")); err != nil {
		t.Fatal(err)
	}
	if !rt.Flush(5 * time.Second) {
		t.Fatal("flush timed out after completion")
	}
	msgs := wr.messages()
	if len(msgs) != 1 || string(msgs[0].Payload) != "late" {
		t.Fatalf("got %+v", msgs)
	}
	if rt.Stats().Detached != 1 {
		t.Fatalf("Detached counter = %d, want 1", rt.Stats().Detached)
	}
}

// Exactly one completion wins; every later Reply/Error returns
// ErrCompleted, from the handler path and the detached path alike.
func TestCompletionExactlyOnce(t *testing.T) {
	type outcome struct {
		co   *Completion
		errs []error
	}
	got := make(chan outcome, 1)
	handler := HandlerFunc(func(ctx *Ctx, c *Conn, m proto.Message) {
		var o outcome
		switch string(m.Payload) {
		case "sync":
			o.errs = append(o.errs, ctx.Reply([]byte("first")))
			o.errs = append(o.errs, ctx.Reply([]byte("second")))
			o.errs = append(o.errs, ctx.Error(proto.StatusAppError, "late error"))
			// Detach after completion: the handle must refuse to fire.
			co := ctx.Detach()
			o.errs = append(o.errs, co.Reply([]byte("zombie")))
		case "detach":
			o.co = ctx.Detach()
		}
		got <- o
	})
	rt := newTestRuntime(t, Config{Cores: 1, Handler: handler})
	wr := &captureWriter{}
	c := rt.NewConn(wr)

	if err := rt.Ingress(c, v2frame(1, "sync")); err != nil {
		t.Fatal(err)
	}
	o := <-got
	if o.errs[0] != nil {
		t.Fatalf("first reply failed: %v", o.errs[0])
	}
	for i, err := range o.errs[1:] {
		if err != ErrCompleted {
			t.Fatalf("duplicate completion %d: got %v, want ErrCompleted", i, err)
		}
	}

	if err := rt.Ingress(c, v2frame(2, "detach")); err != nil {
		t.Fatal(err)
	}
	o = <-got
	if err := o.co.Error(proto.StatusShed, "busy"); err != nil {
		t.Fatal(err)
	}
	if err := o.co.Reply([]byte("again")); err != ErrCompleted {
		t.Fatalf("second detached completion: got %v, want ErrCompleted", err)
	}
	if !rt.Flush(5 * time.Second) {
		t.Fatal("flush timed out")
	}
	msgs := wr.messages()
	if len(msgs) != 2 {
		t.Fatalf("got %d replies, want 2: %+v", len(msgs), msgs)
	}
	if string(msgs[0].Payload) != "first" || msgs[0].Status != proto.StatusOK {
		t.Fatalf("sync reply wrong: %+v", msgs[0])
	}
	if msgs[1].Status != proto.StatusShed || string(msgs[1].Payload) != "busy" {
		t.Fatalf("detached error reply wrong: %+v", msgs[1])
	}
}

// A one-way request must advance the sequencer without transmitting, so
// later replies are not held hostage by a reply that never comes.
func TestOneWayAdvancesSequencer(t *testing.T) {
	handler := HandlerFunc(func(ctx *Ctx, c *Conn, m proto.Message) {
		ctx.Reply(m.Payload) // runtime suppresses it for one-way events
	})
	rt := newTestRuntime(t, Config{Cores: 2, Handler: handler})
	wr := &captureWriter{}
	c := rt.NewConn(wr)
	var stream []byte
	stream = proto.AppendMessage(stream, proto.Message{Ver: 2, ID: 1, Flags: proto.FlagOneWay, Payload: []byte("fire-and-forget")})
	stream = proto.AppendMessage(stream, proto.Message{Ver: 2, ID: 2, Payload: []byte("normal")})
	if err := rt.Ingress(c, stream); err != nil {
		t.Fatal(err)
	}
	if !rt.Flush(5 * time.Second) {
		t.Fatal("flush timed out")
	}
	msgs := wr.messages()
	if len(msgs) != 1 || msgs[0].ID != 2 || string(msgs[0].Payload) != "normal" {
		t.Fatalf("got %+v, want only the reply to request 2", msgs)
	}
}

// Error replies carry their wire status; v1 requests get v1 replies and
// v2 requests get v2 replies on the same connection.
func TestReplyVersionMirrorsRequest(t *testing.T) {
	handler := HandlerFunc(func(ctx *Ctx, c *Conn, m proto.Message) {
		if string(m.Payload) == "fail" {
			ctx.Error(proto.StatusAppError, "nope")
			return
		}
		ctx.Reply(m.Payload)
	})
	rt := newTestRuntime(t, Config{Cores: 1, Handler: handler})
	wr := &captureWriter{}
	c := rt.NewConn(wr)
	var stream []byte
	stream = proto.AppendMessage(stream, proto.Message{ID: 1, Payload: []byte("v1-ok")})
	stream = proto.AppendMessage(stream, proto.Message{Ver: 2, ID: 2, Payload: []byte("fail")})
	stream = proto.AppendMessage(stream, proto.Message{ID: 3, Payload: []byte("fail")})
	if err := rt.Ingress(c, stream); err != nil {
		t.Fatal(err)
	}
	if !rt.Flush(5 * time.Second) {
		t.Fatal("flush timed out")
	}
	msgs := wr.messages()
	if len(msgs) != 3 {
		t.Fatalf("got %d replies, want 3", len(msgs))
	}
	if msgs[0].Ver != 0 || msgs[0].Status != proto.StatusOK {
		t.Fatalf("v1 request must get a v1 reply: %+v", msgs[0])
	}
	if msgs[1].Ver != 2 || msgs[1].Status != proto.StatusAppError || string(msgs[1].Payload) != "nope" {
		t.Fatalf("v2 error reply wrong: %+v", msgs[1])
	}
	// A v1 peer has no status channel: the error arrives as a plain v1
	// reply whose payload is the message.
	if msgs[2].Ver != 0 || string(msgs[2].Payload) != "nope" {
		t.Fatalf("v1 error fallback wrong: %+v", msgs[2])
	}
}

// Stress the sequencer: many connections, every handler detaches, and a
// herd of completer goroutines resolves them in scrambled order while
// stealing is active. Run with -race in CI.
func TestDetachStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const conns = 8
	const per = 100
	type item struct {
		co *Completion
		id uint64
	}
	work := make(chan item, conns*per)
	handler := HandlerFunc(func(ctx *Ctx, c *Conn, m proto.Message) {
		work <- item{co: ctx.Detach(), id: m.ID}
	})
	rt := newTestRuntime(t, Config{Cores: 4, Handler: handler, ParkInterval: 50 * time.Microsecond})
	writers := make([]*captureWriter, conns)
	for i := 0; i < conns; i++ {
		writers[i] = &captureWriter{}
		c := rt.NewConn(writers[i])
		go func() {
			for k := uint64(0); k < per; k++ {
				var p [8]byte
				binary.LittleEndian.PutUint64(p[:], k)
				if err := rt.Ingress(c, proto.AppendMessage(nil, proto.Message{Ver: 2, ID: k, Payload: p[:]})); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := range work {
				if g%2 == 0 {
					time.Sleep(time.Duration(it.id%5) * 10 * time.Microsecond)
				}
				if err := it.co.Reply([]byte(fmt.Sprint(it.id))); err != nil {
					t.Errorf("complete %d: %v", it.id, err)
				}
			}
		}(g)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		total := 0
		for _, wr := range writers {
			total += len(wr.messages())
		}
		if total == conns*per {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d replies arrived", total, conns*per)
		}
		time.Sleep(time.Millisecond)
	}
	close(work)
	wg.Wait()
	for i, wr := range writers {
		msgs := wr.messages()
		for k, m := range msgs {
			if m.ID != uint64(k) {
				t.Fatalf("conn %d reply %d has ID %d: reordered", i, k, m.ID)
			}
		}
	}
	if !rt.Flush(10 * time.Second) {
		t.Fatal("flush timed out")
	}
}

// Backlog must return to exactly zero after traffic drains — each event
// counted parsed exactly once and completed exactly once, whatever mix
// of sync replies, one-way silences, and detached completions produced
// it. A drift here silently disables admission control.
func TestBacklogDrainsToZero(t *testing.T) {
	pending := make(chan *Completion, 64)
	handler := HandlerFunc(func(ctx *Ctx, c *Conn, m proto.Message) {
		switch m.ID % 3 {
		case 0:
			ctx.Reply(m.Payload)
		case 1:
			// never reply: one-way
		case 2:
			pending <- ctx.Detach()
		}
	})
	rt := newTestRuntime(t, Config{Cores: 2, Handler: handler})
	c := rt.NewConn(&captureWriter{})
	const n = 60
	var stream []byte
	for i := uint64(0); i < n; i++ {
		stream = proto.AppendMessage(stream, proto.Message{Ver: 2, ID: i, Payload: []byte{1}})
	}
	if err := rt.Ingress(c, stream); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/3; i++ {
		co := <-pending
		if err := co.Reply([]byte{2}); err != nil {
			t.Fatal(err)
		}
	}
	if !rt.Flush(10 * time.Second) {
		t.Fatal("flush timed out")
	}
	if got := rt.Backlog(); got != 0 {
		t.Fatalf("Backlog() = %d after drain, want 0 (parsed/completed accounting drifted)", got)
	}
	if got := rt.parsedN.Load(); got != n {
		t.Fatalf("parsedN = %d, want %d", got, n)
	}
	if got := rt.completedN.Load(); got != n {
		t.Fatalf("completedN = %d, want %d (double counting)", got, n)
	}
}
