package zygos

import (
	"encoding/json"
	"errors"
	"sync"
	"time"

	"zygos/internal/core"
	"zygos/internal/proto"
	"zygos/internal/pubsub"
)

// Streaming & pub-sub: servers push frames to subscribed clients over
// the same connection as RPC traffic, using the v4 frame pair —
// SUBSCRIBE/UNSUBSCRIBE requests from the client and server-initiated
// PUSH frames carrying a 32-bit subscription ID. Topics share the wire
// method ID space; a published frame carries a 32-bit frame identifier
// that subscription filters match on (exact, mask, range — the CAN
// acceptance-filter shapes — or an arbitrary predicate server-side).
//
// Ownership rules for pushed payloads: the payload slice handed to a
// PushHandler is a view into the transport's pooled parse buffer, valid
// only for the duration of the call — handlers that retain it must
// copy. Symmetrically, Publish copies the payload into each
// subscriber's pre-encoded PUSH frame before returning, so publishers
// may reuse their buffer immediately.
//
// Backpressure is per subscription: DropOldest (the default) evicts the
// oldest queued push when a subscriber falls behind — the publisher
// never blocks — while Disconnect reaps the lagging subscriber's
// connection. Push egress is fair-queued behind the RPC reply writer:
// a firehose topic cannot starve request/reply traffic sharing the
// connection.

// PushFrame is one published datum as seen by server-side predicate
// filters (FilterFunc).
type PushFrame = pubsub.Frame

// Filter selects which of a topic's frames a subscription receives.
// The zero value matches every frame.
type Filter = pubsub.Filter

// FilterAll matches every frame on the topic.
func FilterAll() Filter { return Filter{} }

// FilterExact matches frames whose ID equals id.
func FilterExact(id uint32) Filter { return pubsub.Exact(id) }

// FilterMask matches frames for which frame.ID & mask == id & mask —
// the classic CAN acceptance filter.
func FilterMask(id, mask uint32) Filter { return pubsub.Mask(id, mask) }

// FilterRange matches frames with lo <= ID <= hi, inclusive.
func FilterRange(lo, hi uint32) Filter { return pubsub.Range(lo, hi) }

// FilterFunc matches frames accepted by fn. Predicates cannot travel on
// the wire: a FilterFunc subscription works against a Server's bus
// in-process (Server.SubscribeLocal, RelayTopic destinations) but is
// rejected by client-side Subscribe.
func FilterFunc(fn func(PushFrame) bool) Filter { return pubsub.Func(fn) }

// PushPolicy is a subscription's backpressure policy: what happens when
// its push queue is full.
type PushPolicy uint8

const (
	// DropOldest evicts the oldest queued push to admit the new one,
	// counting the drop in Stats().PubSub.Dropped. The publisher never
	// blocks. This is the default.
	DropOldest PushPolicy = PushPolicy(pubsub.PolicyDropOldest)
	// Disconnect reaps the subscriber's connection when its queue
	// overflows: a consumer that cannot keep up is cut off rather than
	// silently lossy.
	Disconnect PushPolicy = PushPolicy(pubsub.PolicyDisconnect)
)

// SubscribeOptions tune a subscription.
type SubscribeOptions struct {
	// Policy is the backpressure policy; the zero value is DropOldest.
	Policy PushPolicy
	// Buffer is the subscription's push-queue capacity in frames; 0
	// selects the server default (256), values above 32768 are clamped.
	Buffer int
}

// PushHandler receives one pushed frame: the published frame's 32-bit
// identifier and its payload. It runs on the client transport's reply
// delivery path and must not block; the payload slice is valid only for
// the duration of the call.
type PushHandler func(frameID uint32, payload []byte)

// Subscription is a live client-side subscription handle.
type Subscription struct {
	topic uint16
	id    uint32

	once  sync.Once
	unsub func() error
}

// Topic returns the subscribed topic (wire method ID).
func (s *Subscription) Topic() uint16 { return s.topic }

// ID returns the client-chosen subscription ID that demultiplexes this
// subscription's PUSH frames on the shared connection.
func (s *Subscription) ID() uint32 { return s.id }

// Unsubscribe retires the subscription: the handler is removed
// immediately and the server acks the UNSUBSCRIBE. Idempotent; only the
// first call performs the round trip.
func (s *Subscription) Unsubscribe() error {
	var err error
	s.once.Do(func() { err = s.unsub() })
	return err
}

// Subscriber is the client-side capability of subscribing to server
// push topics. Client, TCPClient, and ManagedClient implement it.
// ManagedClient subscriptions are per physical socket and do not
// survive a redial; re-subscribe after transport errors.
type Subscriber interface {
	Subscribe(topic uint16, f Filter, opts SubscribeOptions, h PushHandler) (*Subscription, error)
}

var (
	_ Subscriber = (*Client)(nil)
	_ Subscriber = (*TCPClient)(nil)
	_ Subscriber = (*ManagedClient)(nil)
)

// Publisher is the server-side capability of publishing frames into a
// fan-out bus. *Server implements it; application layers (kv
// invalidation, CDC feeds) program against the interface so tests can
// substitute a recorder.
type Publisher interface {
	// Publish fans one frame out to the topic's matching subscriptions
	// and returns how many received it. The payload is copied per
	// subscriber before Publish returns; it never blocks on slow
	// consumers.
	Publish(topic uint16, frameID uint32, payload []byte) int
}

var _ Publisher = (*Server)(nil)

// encodeSubSpec builds the wire SUBSCRIBE payload from the public
// options. FilterFunc is rejected here — predicates don't serialize.
func encodeSubSpec(f Filter, opts SubscribeOptions) ([]byte, error) {
	qcap := opts.Buffer
	if qcap < 0 {
		qcap = 0
	}
	if qcap > int(^uint16(0)) {
		qcap = int(^uint16(0))
	}
	return pubsub.AppendSubSpec(nil, pubsub.SubSpec{
		Policy: uint8(opts.Policy),
		QCap:   uint16(qcap),
		Filter: f,
	})
}

// Subscribe registers h for pushes on topic matching f, over the
// client's connection. On a ManagedClient, PUSH frames demultiplex by
// subscription ID alongside reply IDs on the shared socket, and
// subscriptions do not survive a redial. See Subscriber.
func (c *clientBase) Subscribe(topic uint16, f Filter, opts SubscribeOptions, h PushHandler) (*Subscription, error) {
	spec, err := encodeSubSpec(f, opts)
	if err != nil {
		return nil, err
	}
	id, err := c.Calls.Subscribe(topic, spec, h)
	if err != nil {
		return nil, err
	}
	return &Subscription{topic: topic, id: id, unsub: func() error { return c.Unsubscribe(topic, id) }}, nil
}

// handleV4 serves the v4 control frames the core handler glue
// intercepts before request dispatch: SUBSCRIBE installs the
// per-connection push ring and hooks it into the fan-out bus,
// UNSUBSCRIBE retires it. The ring owns its bus entry: whichever path
// retires the ring — UNSUBSCRIBE, connection close, a disconnect-policy
// overflow — unhooks the entry with it. Acks ride the connection's TX
// sequencer like any reply, so they are ordered with the RPC traffic
// around them.
func (s *Server) handleV4(ctx *core.Ctx, c *core.Conn, m proto.Message) {
	switch m.Kind {
	case proto.KindSubscribe:
		spec, err := pubsub.DecodeSubSpec(m.Payload)
		if err != nil {
			_ = ctx.Error(StatusAppError, err.Error())
			return
		}
		ps := c.Subscribe(m.SubID, m.Method, spec.Policy == pubsub.PolicyDisconnect, int(spec.QCap))
		if ps == nil {
			_ = ctx.Error(StatusAppError, "zygos: duplicate or closed subscription")
			return
		}
		ps.OnRetire(s.bus.Subscribe(m.Method, spec.Filter, func(fr pubsub.Frame) {
			ps.Push(fr.ID, fr.Payload)
		}).Unsubscribe)
		_ = ctx.Reply(nil)
	case proto.KindUnsubscribe:
		if c.Unsubscribe(m.SubID) == nil {
			_ = ctx.Error(StatusAppError, "zygos: unknown subscription")
			return
		}
		_ = ctx.Reply(nil)
	default:
		// KindPush is server-to-client only; anything else is hostile.
		_ = ctx.Error(StatusAppError, "zygos: unexpected v4 frame kind")
	}
}

// Publish fans one frame out to topic's matching subscriptions and
// returns how many received it. Each matching subscriber's copy is
// encoded into its bounded push queue — Publish never blocks on slow
// consumers (see PushPolicy).
func (s *Server) Publish(topic uint16, frameID uint32, payload []byte) int {
	return s.bus.Publish(pubsub.Frame{Topic: topic, ID: frameID, Payload: payload})
}

// SubscribeLocal registers an in-process deliver function on the
// server's bus — no wire subscription, no push queue, any filter kind
// including FilterFunc. deliver runs synchronously inside Publish and
// must not block; the frame payload is valid only for the duration of
// the call. Unsubscribe via the returned handle's Unsubscribe.
func (s *Server) SubscribeLocal(topic uint16, f Filter, deliver func(PushFrame)) *pubsub.Sub {
	return s.bus.Subscribe(topic, f, deliver)
}

// RelayTopic forwards topic's pushes from an upstream server (reached
// through src — typically a caller to a backend) into dst's own bus, so
// dst's subscribers receive frames published behind a proxy hop: the
// proxy subscribes upstream once and republishes locally. Unsubscribe
// the returned handle to stop the relay.
func RelayTopic(dst *Server, src Subscriber, topic uint16, f Filter, opts SubscribeOptions) (*Subscription, error) {
	return src.Subscribe(topic, f, opts, func(frameID uint32, payload []byte) {
		dst.Publish(topic, frameID, payload)
	})
}

// TopicStats is the reserved topic StreamStats publishes on. Like
// MethodHealth it lives at the top of the method space and should not
// be used as an application route.
const TopicStats uint16 = 0xFFFE

// ErrAlreadyStreaming is returned by StreamStats when a stats stream is
// already running.
var ErrAlreadyStreaming = errors.New("zygos: stats stream already running")

// StreamStats periodically publishes the server's Stats() snapshot,
// JSON-encoded, on TopicStats — live stats streaming for dashboards
// (zygos-bench -live -watch consumes it) instead of polling RPCs. The
// frame ID is a sequence number. Snapshots are only built while the
// topic has subscribers. Returns a stop function (idempotent); only one
// stream may run per server.
func (s *Server) StreamStats(every time.Duration) (func(), error) {
	if every <= 0 {
		every = time.Second
	}
	if !s.statsStreaming.CompareAndSwap(false, true) {
		return nil, ErrAlreadyStreaming
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		var seq uint32
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if s.bus.Subscribers(TopicStats) == 0 {
					continue
				}
				b, err := json.Marshal(s.Stats())
				if err != nil {
					continue
				}
				seq++
				s.Publish(TopicStats, seq, b)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			s.statsStreaming.Store(false)
		})
	}, nil
}

// PubSubStats is the pub-sub slice of Stats.
type PubSubStats struct {
	// Published counts Publish calls on the server's bus.
	Published uint64
	// Delivered counts fan-out deliveries into subscription queues
	// (one frame matched by k subscriptions counts k).
	Delivered uint64
	// Pushed counts PUSH frames actually handed to transport writers.
	Pushed uint64
	// Dropped counts PUSH frames evicted by drop-oldest backpressure,
	// refused at disconnect, or oversized.
	Dropped uint64
	// Subscriptions is the current live wire-subscription count.
	Subscriptions int
}
