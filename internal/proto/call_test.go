package proto

import (
	"errors"
	"testing"
	"time"
)

// Issue is the one Call→Message mapping: version choice, budget stamp,
// one-way flag, and the size check.
func TestIssueMapsCalls(t *testing.T) {
	d := NewDispatcher()
	cb := func([]byte, error) {}
	cases := []struct {
		name string
		call Call
		want Message
	}{
		{"legacy is v2 on method 0", Call{Legacy: true, Method: 9, Done: cb}, Message{Ver: 2}},
		{"method is v3", Call{Method: 9, Done: cb}, Message{Ver: 3, Method: 9}},
		{"budget is stamped", Call{Method: 9, Budget: 3 * time.Millisecond, Done: cb}, Message{Ver: 3, Method: 9, Budget: 3000}},
		{"legacy budget is stamped", Call{Legacy: true, Budget: time.Millisecond, Done: cb}, Message{Ver: 2, Budget: 1000}},
		{"negative budget is none", Call{Method: 9, Budget: -1, Done: cb}, Message{Ver: 3, Method: 9}},
		{"one-way", Call{Method: 9, OneWay: true}, Message{Ver: 3, Method: 9, Flags: FlagOneWay}},
		{"subscribe is v4", Call{Kind: KindSubscribe, Method: 7, SubID: 5, Done: cb, Push: func(uint32, []byte) {}},
			Message{Ver: 4, Kind: KindSubscribe, Method: 7, SubID: 5}},
	}
	for _, tc := range cases {
		m, err := d.Issue(tc.call)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (m.ID != 0) == tc.call.OneWay {
			t.Fatalf("%s: ID %d (one-way calls register nothing, others do)", tc.name, m.ID)
		}
		m.ID = 0
		if m.Ver != tc.want.Ver || m.Method != tc.want.Method ||
			m.Flags != tc.want.Flags || m.Budget != tc.want.Budget || m.Kind != tc.want.Kind || m.SubID != tc.want.SubID {
			t.Fatalf("%s: got %+v, want %+v", tc.name, m, tc.want)
		}
	}
	if _, err := d.Issue(Call{Payload: make([]byte, MaxPayload+1), Done: cb}); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("oversized payload: %v", err)
	}
	d.Close()
	if _, err := d.Issue(Call{Method: 1, OneWay: true}); !errors.Is(err, ErrDispatcherClosed) {
		t.Fatalf("one-way after Close: %v", err)
	}
}

// Fail withdraws a registration so Done never runs, and stays silent
// when the dispatcher already settled the callback.
func TestIssueFailWithdraws(t *testing.T) {
	d := NewDispatcher()
	fired := 0
	sendErr := errors.New("write failed")
	m, err := d.Issue(Call{Method: 1, Done: func([]byte, error) { fired++ }})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Fail(m, sendErr); err != sendErr {
		t.Fatalf("Fail = %v, want the send error", err)
	}
	d.Close()
	if fired != 0 || d.Pending() != 0 {
		t.Fatalf("withdrawn call fired %d times, %d pending", fired, d.Pending())
	}

	d = NewDispatcher()
	m, _ = d.Issue(Call{Method: 1, Done: func([]byte, error) { fired++ }})
	d.Close() // settles the callback under the failing send
	if err := d.Fail(m, sendErr); err != nil {
		t.Fatalf("Fail after the callback was settled = %v, want nil", err)
	}
	if fired != 1 {
		t.Fatalf("callback fired %d times, want 1", fired)
	}
}

// A SUBSCRIBE whose ack is an error leaves no push handler installed.
func TestIssueRefusedSubscribeDropsHandler(t *testing.T) {
	d := NewDispatcher()
	m, err := d.Issue(Call{Kind: KindSubscribe, Method: 7, SubID: 3, Done: func([]byte, error) {}, Push: func(uint32, []byte) {
		t.Error("push delivered to a refused subscription")
	}})
	if err != nil {
		t.Fatal(err)
	}
	nack := AppendMessage(nil, Message{Ver: 4, ID: m.ID, Kind: KindSubscribe, Method: 7, SubID: 3, Status: StatusAppError})
	push := AppendMessage(nil, Message{Ver: 4, ID: 1, Kind: KindPush, Method: 7, SubID: 3, Payload: []byte("p")})
	if err := d.Feed(nack); err != nil {
		t.Fatal(err)
	}
	if err := d.Feed(push); err != nil {
		t.Fatal(err)
	}
}

// recordDoer records every call and answers it inline — or, with held
// set, parks its callback there instead.
type recordDoer struct {
	calls []Call
	held  chan func([]byte, error)
}

func (r *recordDoer) Do(c Call) error {
	switch {
	case r.held != nil:
		r.held <- c.Done
	case !c.OneWay:
		r.calls = append(r.calls, c)
		c.Done([]byte("ok"), nil)
	default:
		r.calls = append(r.calls, c)
	}
	return nil
}

type enforcingDoer struct{ recordDoer }

func (*enforcingDoer) EnforcesBudget() {}

// Every form is one Call; the blocking forms time a positive budget
// themselves unless the Doer enforces it.
func TestCallsForms(t *testing.T) {
	r := &recordDoer{}
	c := Calls{Doer: r}
	cb := func([]byte, error) {}
	c.Call(nil)
	c.CallInto(nil, nil)
	c.CallMethod(4, nil)
	c.CallMethodInto(4, nil, nil)
	c.CallTimeout(nil, time.Second)
	c.CallMethodTimeout(4, nil, time.Second)
	c.SendAsync(nil, cb)
	c.SendMethodAsync(4, nil, cb)
	c.SendMethodBudgetAsync(4, nil, time.Second, cb)
	c.SendOneWay(nil)
	c.SendMethodOneWay(4, nil)
	want := []Call{
		{Legacy: true}, {Legacy: true}, {Method: 4}, {Method: 4},
		{Legacy: true, Budget: time.Second}, {Method: 4, Budget: time.Second},
		{Legacy: true}, {Method: 4}, {Method: 4, Budget: time.Second},
		{Legacy: true, OneWay: true}, {Method: 4, OneWay: true},
	}
	if len(r.calls) != len(want) {
		t.Fatalf("%d calls, want %d", len(r.calls), len(want))
	}
	for i, w := range want {
		g := r.calls[i]
		if g.Method != w.Method || g.Legacy != w.Legacy || g.OneWay != w.OneWay || g.Budget != w.Budget || (g.Done == nil) != w.OneWay {
			t.Fatalf("form %d: got %+v, want %+v", i, g, w)
		}
	}

	held := Calls{Doer: &recordDoer{held: make(chan func([]byte, error), 1)}}
	if _, err := held.CallMethodTimeout(1, nil, 10*time.Millisecond); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("unanswered budgeted call: %v, want ErrCallTimeout", err)
	}
	ed := &enforcingDoer{recordDoer{held: make(chan func([]byte, error), 1)}}
	errc := make(chan error, 1)
	go func() {
		_, err := Calls{Doer: ed}.CallMethodTimeout(1, nil, 10*time.Millisecond)
		errc <- err
	}()
	done := <-ed.held
	select {
	case err := <-errc:
		t.Fatalf("the blocking form timed a budget the Doer enforces itself: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	done(nil, ErrCallTimeout) // the enforcer settles it
	if err := <-errc; !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("enforced call: %v, want ErrCallTimeout", err)
	}
}
