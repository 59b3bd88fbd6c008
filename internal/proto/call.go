package proto

import (
	"sync/atomic"
	"time"
)

// Call is one client request, described by value. Every calling
// convention a client offers — blocking or async, legacy or
// method-routed, deadline-bounded, one-way, subscription control — is a
// Call handed to a Doer; Calls builds the conventional method set on
// top of that single primitive.
type Call struct {
	// Method is the wire method ID the server routes by (a v3 frame), or
	// the topic of a subscription control call.
	Method uint16
	// Legacy sends a method-less v2 frame, served by the server's method-0
	// route; Method is ignored.
	Legacy bool
	// OneWay asks the server to execute the request and send nothing
	// back; Done is not used.
	OneWay bool
	// Kind, when nonzero, makes the call a v4 subscription control frame
	// (KindSubscribe or KindUnsubscribe) for subscription SubID on topic
	// Method.
	Kind  uint8
	SubID uint32
	// Budget is the caller's deadline: it travels on the wire as the
	// remaining budget the server sheds and schedules by (FlagDeadline),
	// and it bounds how long a blocking form waits. Zero or negative
	// means none. A BudgetEnforcer may give zero and negative their own
	// meanings (the cluster tier: inherit its default, disable).
	Budget  time.Duration
	Payload []byte
	// Done receives the reply payload, or an error, exactly once — unless
	// Do returns an error, in which case it is never invoked. Non-OK wire
	// statuses arrive as *StatusError. resp is a view into a pooled parse
	// buffer, valid only for the duration of the callback.
	Done func(resp []byte, err error)
	// Push receives the PUSH frames of a KindSubscribe call. It runs on
	// the transport's delivery path and must not block; payload is valid
	// only for the duration of the call.
	Push func(frameID uint32, payload []byte)
}

// Doer is the one primitive every transport implements.
type Doer interface {
	// Do sends c without waiting for its reply. It returns an error when
	// the call could not be sent — after Close, for instance — and then
	// never invokes c.Done.
	Do(c Call) error
}

// BudgetEnforcer is implemented by a Doer that settles a budgeted call
// itself, delivering ErrCallTimeout to Done once Call.Budget runs out.
// The blocking forms of Calls then wait on Done alone, so one timer owns
// each deadline.
type BudgetEnforcer interface {
	EnforcesBudget()
}

// DepthReporter is the optional capability of transports that deliver
// the server's scheduling depth from piggybacked health frames (see
// MethodHealth). f receives each report; nil uninstalls. f must be
// cheap — it runs on the reply delivery path.
type DepthReporter interface {
	OnDepth(f func(depth uint32))
}

// Calls implements the whole calling surface over one Doer. A transport
// embeds it with Doer set to itself (or to the transport it wraps) and
// writes only Do.
type Calls struct {
	Doer
}

// roundTrip issues call and blocks for its reply, appending the payload
// to buf. A positive Budget is timed here — ErrCallTimeout on expiry,
// the late reply discarded at the waiter — unless the Doer is a
// BudgetEnforcer, whose own timer settles the call.
func (c Calls) roundTrip(call Call, buf []byte) ([]byte, error) {
	w := GetWaiter(buf)
	call.Done = w.Callback()
	if err := c.Do(call); err != nil {
		w.Abandon()
		return nil, err
	}
	if call.Budget > 0 {
		if _, ok := c.Doer.(BudgetEnforcer); !ok {
			return w.WaitTimeout(call.Budget)
		}
	}
	return w.Wait()
}

// Call issues a legacy request and blocks for its reply. The returned
// slice is owned by the caller.
func (c Calls) Call(payload []byte) ([]byte, error) {
	return c.roundTrip(Call{Legacy: true, Payload: payload}, nil)
}

// CallInto is Call appending the reply to buf; reusing the returned
// buffer makes closed-loop calling allocation-free at steady state.
func (c Calls) CallInto(payload, buf []byte) ([]byte, error) {
	return c.roundTrip(Call{Legacy: true, Payload: payload}, buf)
}

// CallMethod issues a method-routed request and blocks for its reply.
func (c Calls) CallMethod(method uint16, payload []byte) ([]byte, error) {
	return c.roundTrip(Call{Method: method, Payload: payload}, nil)
}

// CallMethodInto is CallMethod appending the reply to buf.
func (c Calls) CallMethodInto(method uint16, payload, buf []byte) ([]byte, error) {
	return c.roundTrip(Call{Method: method, Payload: payload}, buf)
}

// CallTimeout is Call bounded by d, which also travels as the wire
// budget. d <= 0 means no deadline (see Call.Budget).
func (c Calls) CallTimeout(payload []byte, d time.Duration) ([]byte, error) {
	return c.roundTrip(Call{Legacy: true, Payload: payload, Budget: d}, nil)
}

// CallMethodTimeout is CallMethod bounded by d (see CallTimeout).
func (c Calls) CallMethodTimeout(method uint16, payload []byte, d time.Duration) ([]byte, error) {
	return c.roundTrip(Call{Method: method, Payload: payload, Budget: d}, nil)
}

// SendAsync issues a legacy request; cb runs exactly once with the reply
// or an error, unless SendAsync itself fails. This is the open-loop
// primitive.
func (c Calls) SendAsync(payload []byte, cb func(resp []byte, err error)) error {
	return c.Do(Call{Legacy: true, Payload: payload, Done: cb})
}

// SendMethodAsync is SendAsync with a wire method ID.
func (c Calls) SendMethodAsync(method uint16, payload []byte, cb func(resp []byte, err error)) error {
	return c.Do(Call{Method: method, Payload: payload, Done: cb})
}

// SendMethodBudgetAsync is SendMethodAsync with a wire deadline budget:
// the server sheds the request unserved once d has run out and orders
// ready work earliest-deadline-first. d <= 0 sends no budget.
func (c Calls) SendMethodBudgetAsync(method uint16, payload []byte, d time.Duration, cb func(resp []byte, err error)) error {
	return c.Do(Call{Method: method, Payload: payload, Budget: d, Done: cb})
}

// SendOneWay issues a fire-and-forget legacy request: the server
// executes it and transmits nothing back.
func (c Calls) SendOneWay(payload []byte) error {
	return c.Do(Call{Legacy: true, OneWay: true, Payload: payload})
}

// SendMethodOneWay is SendOneWay with a wire method ID.
func (c Calls) SendMethodOneWay(method uint16, payload []byte) error {
	return c.Do(Call{Method: method, OneWay: true, Payload: payload})
}

// subIDs allocates subscription IDs process-wide: an ID unique in the
// process is unique on whichever socket carries it, however transports
// share or redial their sockets.
var subIDs atomic.Uint32

// Subscribe sends a v4 SUBSCRIBE for topic carrying spec (an encoded
// pubsub subscription spec), installs h to receive the matching PUSH
// frames, and blocks for the server's ack. It returns the subscription
// ID the pushes are demultiplexed by.
func (c Calls) Subscribe(topic uint16, spec []byte, h func(frameID uint32, payload []byte)) (uint32, error) {
	id := subIDs.Add(1)
	if _, err := c.roundTrip(Call{Kind: KindSubscribe, Method: topic, SubID: id, Payload: spec, Push: h}, nil); err != nil {
		return 0, err
	}
	return id, nil
}

// Unsubscribe retires subscription subID on topic: its push handler is
// removed at once (pushes already in flight may deliver once) and the
// server acks the v4 UNSUBSCRIBE.
func (c Calls) Unsubscribe(topic uint16, subID uint32) error {
	_, err := c.roundTrip(Call{Kind: KindUnsubscribe, Method: topic, SubID: subID}, nil)
	return err
}
