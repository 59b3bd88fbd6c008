// Package zygos is a Go implementation of the ZygOS execution model
// (Prekas, Kogias, Bugnion — SOSP '17): a work-conserving scheduler for
// microsecond-scale RPC serving that eliminates head-of-line blocking
// through per-connection shuffle queues, work stealing across cores, and
// prompt kernel-side TX of stolen work's replies.
//
// A Server owns a fixed pool of per-core workers. Each connection is
// steered to a home worker by RSS-style flow hashing; its requests are
// parsed there and published on the home's shuffle queue, from which idle
// workers steal. A connection is owned exclusively while its events
// execute, so pipelined requests on one connection are answered in order
// with no application-level locking — the paper's §4.3 guarantee.
//
// # Handlers, methods, and replies
//
// The application is a set of method-routed Handlers in the style of
// net/http: a Mux maps each wire method ID (carried in the v3 frame
// header) to a handler, and the Mux itself is the server's Handler:
//
//	mux := zygos.NewMux()
//	mux.HandleFunc(1, func(w zygos.ResponseWriter, req *zygos.Request) {
//		w.Reply(append([]byte("echo:"), req.Payload...))
//	})
//	mux.HandleFunc(2, func(w zygos.ResponseWriter, req *zygos.Request) {
//		w.Error(zygos.StatusAppError, "not implemented")
//	})
//	srv, _ := zygos.NewServer(zygos.Config{Cores: 4, Handler: mux.Handler()})
//	defer srv.Close()
//	l, _ := net.Listen("tcp", ":9000")
//	go srv.Serve(l)
//
//	c, _ := zygos.DialClient(":9000", time.Second)
//	resp, _ := c.CallMethod(1, []byte("hi"))
//
// Requests from v1/v2 clients carry no method and dispatch to method 0,
// the legacy route; calling an unregistered method returns a
// StatusNoMethod *StatusError. Single-operation servers can skip the
// Mux entirely and set Config.Handler to a bare Handler, exactly as
// before.
//
// A handler completes each request exactly once — successfully with
// Reply, or with a wire-level status code with Error, which clients see
// as a typed *StatusError. A handler that returns without replying sends
// nothing (one-way semantics).
//
// Long tasks need not pin their worker: Detach returns a Completion that
// can finish the reply later from any goroutine, while the worker moves
// on to run or steal other events. Replies — detached or not — are always
// transmitted in per-connection request order; the runtime's completion
// tokens and TX sequencer enforce it.
//
//	Handler: func(w zygos.ResponseWriter, req *zygos.Request) {
//		co := w.Detach()
//		go func() { co.Reply(slowLookup(req.Payload)) }()
//	}
//
// Cross-cutting concerns stack as middleware:
//
//	srv.Use(srv.LatencyRecording(), srv.AdmissionControl(1024))
//
// In-process clients (srv.NewClient), TCP clients (DialClient), managed
// callers and clusters share the Caller interface: each transport
// implements one primitive, Do, and the calling conventions over it are
// written once.
package zygos

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"zygos/internal/core"
	"zygos/internal/memnet"
	"zygos/internal/proto"
	"zygos/internal/pubsub"
	"zygos/internal/tcpnet"
)

// Wire status codes carried in the reply header's status byte (v2
// framing). StatusOK replies deliver their payload; any other status
// surfaces to callers as *StatusError.
const (
	// StatusOK is a successful reply.
	StatusOK = proto.StatusOK
	// StatusAppError is an application-level error; the message travels
	// as the reply payload.
	StatusAppError = proto.StatusAppError
	// StatusShed reports that admission control rejected the request
	// before it ran.
	StatusShed = proto.StatusShed
	// StatusInternal reports a server-side failure.
	StatusInternal = proto.StatusInternal
	// StatusNoMethod reports that the request named a method no handler
	// is registered for (the Mux's NotFound reply).
	StatusNoMethod = proto.StatusNoMethod
	// StatusDeadlineExceeded reports that the request's wire deadline
	// budget expired before (or while) the server could serve it — the
	// reply nobody is waiting for anymore, answered without running the
	// handler.
	StatusDeadlineExceeded = proto.StatusDeadlineExceeded
)

// Typed sentinels for errors.Is: a *StatusError matches when its code
// matches, regardless of message, so callers can branch on the class of
// rejection without string inspection:
//
//	if errors.Is(err, zygos.ErrShed) { backoff(RetryAfter(err)) }
var (
	// ErrShed matches replies rejected by admission control
	// (StatusShed).
	ErrShed = proto.ErrShed
	// ErrDeadlineExceeded matches replies whose deadline budget ran out
	// server-side (StatusDeadlineExceeded).
	ErrDeadlineExceeded = proto.ErrDeadlineExceeded
)

// RetryAfter extracts the server's retry-after hint from a shed error,
// if err is (or wraps) a *StatusError whose message carries one. Shed
// replies produced by the admission middleware and the cluster front
// tier embed the hint; zero, false otherwise.
func RetryAfter(err error) (time.Duration, bool) {
	var se *StatusError
	if !errors.As(err, &se) {
		return 0, false
	}
	d, _, ok := proto.ParseRetryAfter(se.Msg)
	return d, ok
}

// StatusError is the typed error clients receive when a reply carries a
// non-OK wire status. Use errors.As to inspect the code:
//
//	var se *zygos.StatusError
//	if errors.As(err, &se) && se.Code == zygos.StatusShed { backoff() }
type StatusError = proto.StatusError

// StatusText returns a short human-readable name for a status code.
func StatusText(code uint8) string { return proto.StatusText(code) }

// ErrCallTimeout is returned by CallTimeout/CallMethodTimeout (and by
// cluster calls bounded by ClusterConfig.CallTimeout) when no final
// reply arrived within the deadline. The late reply, if it ever lands,
// is discarded without corrupting pooled buffers or the reply demux.
var ErrCallTimeout = proto.ErrCallTimeout

// MethodHealth is the reserved wire method ID (0xFFFF) carrying
// piggybacked depth reports (Config.DepthFrames); it never reaches a
// Handler and cannot be registered on a Mux.
const MethodHealth = proto.MethodHealth

// Request is one incoming RPC delivered to a Handler. Middleware may
// annotate it; the pointer is shared down the chain.
//
// Ownership: the Request and its Payload are valid for the duration of
// the handler invocation — Payload is a view into a pooled parse buffer
// and the Request itself is recycled when the handler returns. A handler
// that called Detach keeps both until it completes the reply through the
// Completion; anything retained beyond that must be copied first.
type Request struct {
	// ID is the client-assigned request identifier echoed on the reply.
	ID uint64
	// Method is the wire method ID naming the operation (v3 frames);
	// zero for v1/v2 frames, which carry no method — the legacy route.
	// A Mux dispatches on it; the reply header echoes it.
	Method uint16
	// Payload is the request body.
	Payload []byte
	// Conn identifies the connection the request arrived on.
	Conn uint64
	// Worker is the index of the worker executing the handler — useful
	// for per-core sharding inside applications.
	Worker int
	// Stolen reports whether the request executes on a non-home worker.
	Stolen bool
	// OneWay reports that the sender expects no reply; Reply and Error
	// still complete the request but transmit nothing.
	OneWay bool
	// ArrivedAt is when the request was parsed off the wire on its home
	// core.
	ArrivedAt time.Time
	// QueueDelay is how long the request waited between arrival and the
	// start of its activation — the scheduler-induced delay the paper's
	// tail-latency argument is about. Requests executing in one
	// activation batch (pipelined on the same connection) share the
	// batch's start timestamp: a predecessor's handler time is service
	// order imposed by per-connection exclusivity, not scheduling, and
	// is visible in the end-to-end Latency histogram instead.
	QueueDelay time.Duration

	// deadline is the absolute deadline derived from the wire budget
	// (FlagDeadline extension); zero when the request carried none.
	deadline time.Time
}

// Deadline returns the request's absolute deadline, derived on arrival
// from the wire deadline budget, and whether the request carried one.
// Handlers use it to size their own work — skipping optional stages,
// truncating scans — to what the caller will still wait for.
func (r *Request) Deadline() (time.Time, bool) {
	return r.deadline, !r.deadline.IsZero()
}

// RemainingBudget returns the time left until the request's deadline
// (negative once passed) and whether the request carried a budget.
func (r *Request) RemainingBudget() (time.Duration, bool) {
	if r.deadline.IsZero() {
		return 0, false
	}
	return time.Until(r.deadline), true
}

// ResponseWriter completes a request. Exactly one completion wins —
// Reply, Error, or a detached Completion's — and later attempts return
// core.ErrCompleted. Replies are delivered in per-connection request
// order regardless of completion order.
type ResponseWriter interface {
	// Reply completes the request successfully with payload.
	Reply(payload []byte) error
	// Error completes the request with a wire-level status code; msg
	// travels as the reply payload. Clients surface it as *StatusError.
	Error(code uint8, msg string) error
	// Detach releases the request from its worker: the handler may
	// return immediately and complete the reply later, from any
	// goroutine, through the returned Completion.
	Detach() Completion
}

// Completion is a detached request's reply handle. It is safe for use
// from any goroutine.
type Completion interface {
	Reply(payload []byte) error
	Error(code uint8, msg string) error
}

// Handler processes one request and completes it through w. Handlers run
// with exclusive ownership of their connection: two requests from the
// same connection never execute concurrently, and replies are
// transmitted in request order.
type Handler func(w ResponseWriter, req *Request)

// SyncHandler adapts the legacy synchronous signature — return the reply
// payload, or nil to send no reply — to a Handler. It eases migration;
// new code should use the ResponseWriter form directly.
func SyncHandler(f func(req *Request) []byte) Handler {
	return func(w ResponseWriter, req *Request) {
		if resp := f(req); resp != nil {
			w.Reply(resp)
		}
	}
}

// Middleware wraps a Handler with a cross-cutting concern. Chains are
// installed with Server.Use; the first middleware installed is the
// outermost. A middleware may wrap w to observe the reply — including
// replies completed after Detach.
type Middleware func(next Handler) Handler

// Config parameterizes a Server.
type Config struct {
	// Cores is the number of scheduler workers; defaults to GOMAXPROCS.
	Cores int
	// Handler is the application; required.
	Handler Handler
	// Partitioned disables work stealing, degrading the scheduler to a
	// shared-nothing dataplane (the IX baseline's behaviour). Ablation.
	Partitioned bool
	// NoInterrupts disables the IPI-analogue kernel proxying, reproducing
	// the paper's cooperative "ZygOS (no interrupts)" variant. Ablation.
	NoInterrupts bool
	// ParkInterval bounds idle workers' sleep between steal scans;
	// defaults to 100µs.
	ParkInterval time.Duration
	// IdleTimeout closes TCP connections with no wire activity for this
	// long, returning their pooled buffers. Zero (the default) disables
	// reaping.
	IdleTimeout time.Duration
	// DepthFrames piggybacks the server's live scheduling depth onto
	// each reply batch as a reserved-method v3 health frame (~20 bytes
	// per egress flush, read from atomic counters). Clients that
	// installed OnDepth receive it; all others drop it for free. A
	// cluster tier's tail-aware balancer routes on these.
	DepthFrames bool
}

// LatencySnapshot summarizes one of the server's latency histograms.
type LatencySnapshot struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Stats is a snapshot of scheduler and middleware counters.
type Stats struct {
	// Events is the number of application events executed.
	Events uint64
	// Steals counts events executed by a non-home worker.
	Steals uint64
	// Proxies counts kernel steps executed on another worker's behalf —
	// the stand-in for the paper's inter-processor interrupts.
	Proxies uint64
	// Conns counts connections ever created.
	Conns uint64
	// Detached counts requests whose handlers detached their reply.
	Detached uint64
	// Parks counts times an idle worker committed to sleep on its
	// eventcount; with wake-on-demand parking this tracks genuine idle
	// transitions, not a poll interval.
	Parks uint64
	// Wakes counts demand wakes delivered to parked workers by
	// publishers (ingress arrivals, ready publications, steal
	// propagation). Wakes ≪ Parks means workers mostly ride the
	// watchdog; Wakes ≈ Parks means the fabric is waking them exactly
	// when work arrives.
	Wakes uint64
	// Shed counts requests rejected by the admission middleware
	// (AdmissionControl or RouteAwareAdmission).
	Shed uint64
	// Expired counts requests the scheduler answered
	// StatusDeadlineExceeded because their wire deadline budget had
	// already run out when they reached the front of the queue — work
	// shed for free instead of executed for nobody.
	Expired uint64
	// Latency summarizes end-to-end latency (arrival to reply,
	// including detached time); populated once LatencyRecording is
	// installed. A request is recorded after its reply has been handed
	// to the transport, so Stats() is not ordered before the reply: a
	// caller whose Call has returned may not see it counted yet.
	Latency LatencySnapshot
	// QueueDelay summarizes scheduling delay (arrival to handler
	// start); populated once LatencyRecording is installed.
	QueueDelay LatencySnapshot
	// Routes breaks the traffic down by wire method ID — the
	// per-operation view the paper's request-type-mix analysis needs.
	// Populated once LatencyRecording is installed; method 0 aggregates
	// legacy (v1/v2) traffic. Nil until the first recorded request.
	Routes map[uint16]RouteStats
	// Net is the TCP transport's connection registry snapshot. All
	// zeros for servers never serving TCP.
	Net NetStats
	// PubSub is the streaming/pub-sub slice: bus publishes and fan-out
	// deliveries, push frames sent and dropped, live subscriptions.
	PubSub PubSubStats
}

// NetStats is a snapshot of the TCP transport's connection registry.
// See tcpnet.NetStats for field semantics.
type NetStats = tcpnet.NetStats

// RouteStats is one method's slice of the traffic.
type RouteStats struct {
	// Count is the number of requests dispatched to the route,
	// including those still in flight.
	Count uint64
	// Shed counts the route's requests rejected by admission control.
	Shed uint64
	// Expired counts the route's requests answered
	// StatusDeadlineExceeded because their budget ran out in the queue.
	Expired uint64
	// SLOMet and SLOMissed split the route's completed budgeted
	// requests by whether the reply finished inside the wire deadline —
	// the per-route attainment the SLO experiment gates on. Requests
	// carrying no budget count in neither.
	SLOMet    uint64
	SLOMissed uint64
	// Latency summarizes the route's completed requests end to end
	// (arrival to reply, detached time included).
	Latency LatencySnapshot
}

// Attainment returns the fraction of the route's budgeted completions
// that met their deadline; 1 when no budgeted request has completed.
func (r RouteStats) Attainment() float64 {
	total := r.SLOMet + r.SLOMissed
	if total == 0 {
		return 1
	}
	return float64(r.SLOMet) / float64(total)
}

// StealFraction returns steals per executed event (the Figure 8 metric).
func (s Stats) StealFraction() float64 {
	if s.Events == 0 {
		return 0
	}
	return float64(s.Steals) / float64(s.Events)
}

// ProxyFraction returns proxied kernel steps per executed event — how
// often the IPI analogue fired relative to useful work, the companion
// metric to StealFraction for the paper's interrupt-cost discussion.
func (s Stats) ProxyFraction() float64 {
	if s.Events == 0 {
		return 0
	}
	return float64(s.Proxies) / float64(s.Events)
}

// Server is a ZygOS-style RPC server.
type Server struct {
	rt  *core.Runtime
	mem *memnet.Transport
	tcp *tcpnet.Server

	// The middleware chain. handler holds the composed Handler; Use
	// recomputes it under mu. The hot path loads it atomically.
	mu      sync.Mutex
	base    Handler
	mws     []Middleware
	handler atomic.Value // of Handler

	latency lockedHistogram
	qdelay  lockedHistogram
	shed    atomic.Uint64

	// Per-route (per wire method) records, created on first sight of a
	// method by the LatencyRecording middleware. Reads vastly outnumber
	// the one-time inserts, hence the RWMutex.
	routeMu   sync.RWMutex
	routeRecs map[uint16]*routeRec

	// The pub-sub fan-out bus. A wire subscription's entry is owned by
	// its connection's push ring, which retires it (see handleV4).
	bus            *pubsub.Bus
	statsStreaming atomic.Bool
}

// NewServer creates and starts a server's worker pool.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Handler == nil {
		return nil, errors.New("zygos: Config.Handler is required")
	}
	s := &Server{
		base: cfg.Handler,
		bus:  pubsub.NewBus(),
	}
	s.handler.Store(cfg.Handler)
	rt, err := core.New(core.Config{
		Cores: cfg.Cores,
		Handler: core.HandlerFunc(func(ctx *core.Ctx, c *core.Conn, m proto.Message) {
			if m.Ver == 4 {
				// v4 control frames (SUBSCRIBE/UNSUBSCRIBE) are runtime
				// traffic, not application requests: they never reach the
				// Handler or its middleware chain.
				s.handleV4(ctx, c, m)
				return
			}
			req := reqPool.Get().(*Request)
			*req = Request{
				ID:         m.ID,
				Method:     m.Method,
				Payload:    m.Payload,
				Conn:       c.ID(),
				Worker:     ctx.Worker(),
				Stolen:     ctx.Stolen(),
				OneWay:     m.Flags&proto.FlagOneWay != 0,
				ArrivedAt:  ctx.ArrivedAt(),
				QueueDelay: ctx.QueueDelay(),
			}
			if dl, ok := ctx.Deadline(); ok {
				req.deadline = dl
			}
			h := s.handler.Load().(Handler)
			h(coreWriter{ctx}, req)
			if !ctx.Detached() {
				// The handler is done with the request (detached handlers
				// keep it until their Completion resolves and are left to
				// the garbage collector).
				*req = Request{}
				reqPool.Put(req)
			}
		}),
		DisableStealing: cfg.Partitioned,
		DisableProxy:    cfg.NoInterrupts,
		ParkInterval:    cfg.ParkInterval,
		DepthFrames:     cfg.DepthFrames,
		// Attribute scheduler-level deadline expiries to their route so
		// Stats().Routes reflects who lost budget in the queue.
		OnExpired: func(method uint16) { s.routeRec(method).expired.Add(1) },
	})
	if err != nil {
		return nil, err
	}
	s.rt = rt
	s.mem = memnet.NewTransport(rt)
	var topts []tcpnet.Option
	if cfg.IdleTimeout > 0 {
		topts = append(topts, tcpnet.WithIdleTimeout(cfg.IdleTimeout))
	}
	s.tcp = tcpnet.NewServer(rt, topts...)
	return s, nil
}

// Use appends middleware to the server's chain and recomposes it. The
// first middleware installed is the outermost (it sees the request
// first and the reply last). Installing middleware while requests are in
// flight is safe; each request binds the chain current at its delivery.
func (s *Server) Use(mws ...Middleware) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mws = append(s.mws, mws...)
	h := s.base
	for i := len(s.mws) - 1; i >= 0; i-- {
		h = s.mws[i](h)
	}
	s.handler.Store(h)
}

// reqPool recycles Request objects across handler invocations; detached
// requests are excluded since their handler goroutine may hold them
// arbitrarily long.
var reqPool = sync.Pool{New: func() any { return new(Request) }}

// coreWriter adapts the runtime's per-event Ctx to the public
// ResponseWriter.
type coreWriter struct {
	ctx *core.Ctx
}

func (w coreWriter) Reply(payload []byte) error         { return w.ctx.Reply(payload) }
func (w coreWriter) Error(code uint8, msg string) error { return w.ctx.Error(code, msg) }
func (w coreWriter) Detach() Completion                 { return w.ctx.Detach() }

// Serve accepts TCP connections on l until l closes or Close is called.
func (s *Server) Serve(l net.Listener) error {
	return s.tcp.Serve(l)
}

// ListenShards opens shards TCP listeners sharing addr via SO_REUSEPORT
// (on Linux; elsewhere it degrades to a single listener), so the kernel
// spreads incoming connections across independent accept loops. Serve
// each returned listener in its own goroutine:
//
//	ls, _ := zygos.ListenShards(":9000", srv.Cores())
//	for _, l := range ls {
//		go srv.Serve(l)
//	}
func ListenShards(addr string, shards int) ([]net.Listener, error) {
	return tcpnet.ListenShards(addr, shards)
}

// NewClient returns an in-process client connection that exercises the
// full scheduling path (parser, shuffle queue, stealing, ordered TX)
// without sockets.
func (s *Server) NewClient() *Client {
	cc := s.mem.Dial()
	return &Client{clientBase: newClientBase(cc), cc: cc}
}

// Stats returns a snapshot of scheduler and middleware counters.
func (s *Server) Stats() Stats {
	st := s.rt.Stats()
	out := Stats{
		Events:     st.Events,
		Steals:     st.Steals,
		Proxies:    st.Proxies,
		Conns:      st.Conns,
		Detached:   st.Detached,
		Parks:      st.Parks,
		Wakes:      st.Wakes,
		Shed:       s.shed.Load(),
		Expired:    st.Expired,
		Latency:    s.latency.snapshot(),
		QueueDelay: s.qdelay.snapshot(),
	}
	s.routeMu.RLock()
	if len(s.routeRecs) > 0 {
		out.Routes = make(map[uint16]RouteStats, len(s.routeRecs))
		for method, r := range s.routeRecs {
			out.Routes[method] = RouteStats{
				Count:     r.count.Load(),
				Shed:      r.shed.Load(),
				Expired:   r.expired.Load(),
				SLOMet:    r.sloMet.Load(),
				SLOMissed: r.sloMissed.Load(),
				Latency:   r.lat.snapshot(),
			}
		}
	}
	s.routeMu.RUnlock()
	bs := s.bus.Stats()
	out.PubSub = PubSubStats{
		Published:     bs.Published,
		Delivered:     bs.Delivered,
		Pushed:        st.PushSent,
		Dropped:       st.PushDropped,
		Subscriptions: int(st.Subs),
	}
	out.Net = s.tcp.NetStats()
	return out
}

// DepthSnapshot is the server's instantaneous scheduling depth — the
// load signal the depth piggyback stamps on the wire. See
// core.DepthSnapshot for field semantics.
type DepthSnapshot = core.DepthSnapshot

// Depths returns the server's instantaneous scheduling depths:
// allocation-free atomic reads, cheap enough for the reply hot path and
// for polling balancers, where the full Stats() snapshot (which builds
// per-route maps) is not.
func (s *Server) Depths() DepthSnapshot { return s.rt.Depths() }

// Cores returns the number of scheduler workers.
func (s *Server) Cores() int { return s.rt.Cores() }

// Flush blocks until all ingested requests have executed and replied —
// including detached replies — or the timeout elapses. Intended for
// tests and orderly shutdown.
func (s *Server) Flush(timeout time.Duration) bool { return s.rt.Flush(timeout) }

// Close stops the TCP acceptor (if any) and the worker pool.
func (s *Server) Close() {
	s.tcp.Close()
	s.rt.Close()
}

// Call is one client request described by value — method or legacy
// route, payload, deadline budget, one-way flag, reply callback. It is
// what every calling form below reduces to; see Caller.
type Call = proto.Call

// Doer is the one request primitive: Do sends a Call without waiting for
// its reply. Every client type — Client, TCPClient, ManagedClient and
// ClusterCaller — implements it, and ClusterCaller.Add accepts any Doer
// as a backend.
type Doer = proto.Doer

// Caller is one client connection to a Server, independent of transport.
// Every client type satisfies it; load generators and benchmarks program
// against Caller so one code path drives any of them.
//
// A transport implements a single primitive, Do. Every other method is
// a convenience over it, written once (the blocking forms wait on a
// pooled waiter, the async forms hand the callback straight to Do), so
// all transports behave identically. The method-less calls travel as
// v2 frames and land on the server's method-0 (legacy) route; the
// Method variants carry a wire method ID in a v3 frame and are routed by
// the server's Mux.
//
// A deadline has one owner. CallTimeout's d travels as the wire budget
// the server sheds and schedules by, and the blocking call itself gives
// up with ErrCallTimeout when d runs out — except through a
// ClusterCaller, whose per-request deadline timer settles the call (and
// counts it in DeadlinesExpired) instead.
//
// Close fails the calls still outstanding, and every later call on the
// closed Caller returns an error without invoking its callback.
type Caller interface {
	// Do sends c without waiting for its reply. If it returns an error,
	// c.Done is never invoked; otherwise c.Done (unless c.OneWay) runs
	// exactly once.
	Do(c Call) error
	// Call issues a request and blocks for its reply. Non-OK reply
	// statuses surface as *StatusError. The returned slice is owned by
	// the caller.
	Call(payload []byte) ([]byte, error)
	// CallInto is Call with a caller-owned reply buffer: the reply
	// payload is appended to buf and the extended slice returned.
	// Reusing the returned buffer makes closed-loop calling
	// allocation-free at steady state.
	CallInto(payload, buf []byte) ([]byte, error)
	// CallMethod issues a method-routed request and blocks for its
	// reply.
	CallMethod(method uint16, payload []byte) ([]byte, error)
	// CallMethodInto is CallMethod with a caller-owned reply buffer.
	CallMethodInto(method uint16, payload, buf []byte) ([]byte, error)
	// CallTimeout is Call bounded by a deadline: on expiry it returns
	// ErrCallTimeout promptly and the late reply, if one ever arrives,
	// is discarded safely. d <= 0 means no deadline.
	CallTimeout(payload []byte, d time.Duration) ([]byte, error)
	// CallMethodTimeout is CallMethod bounded by a deadline (see
	// CallTimeout).
	CallMethodTimeout(method uint16, payload []byte, d time.Duration) ([]byte, error)
	// SendAsync issues a request; cb runs exactly once with the reply
	// payload or an error. The resp slice is valid only for the duration
	// of the callback. This is the open-loop primitive.
	SendAsync(payload []byte, cb func(resp []byte, err error)) error
	// SendMethodAsync is SendAsync with a wire method ID.
	SendMethodAsync(method uint16, payload []byte, cb func(resp []byte, err error)) error
	// SendOneWay issues a fire-and-forget request: the server executes
	// it but transmits no reply.
	SendOneWay(payload []byte) error
	// SendMethodOneWay is SendOneWay with a wire method ID.
	SendMethodOneWay(method uint16, payload []byte) error
	// Close tears down the connection; outstanding calls fail and later
	// calls are refused.
	Close()
}

// BudgetCaller is the optional capability of callers that can stamp an
// explicit deadline budget on an open-loop send (closed-loop calls get
// one automatically from CallTimeout/CallMethodTimeout). Client,
// TCPClient, ManagedClient, and ClusterCaller all implement it; code
// holding a Caller type-asserts for it.
type BudgetCaller interface {
	// SendMethodBudgetAsync is SendMethodAsync with a deadline budget
	// carried on the wire (FlagDeadline extension): the server sheds the
	// request unserved if the budget runs out in its queues and orders
	// ready work earliest-deadline-first. d <= 0 sends no budget.
	SendMethodBudgetAsync(method uint16, payload []byte, d time.Duration, cb func(resp []byte, err error)) error
}

var (
	_ Caller       = (*Client)(nil)
	_ Caller       = (*TCPClient)(nil)
	_ Caller       = (*ManagedClient)(nil)
	_ BudgetCaller = (*Client)(nil)
	_ BudgetCaller = (*TCPClient)(nil)
	_ BudgetCaller = (*ManagedClient)(nil)
)

// transport is what a client type needs from the connection beneath it.
type transport interface {
	proto.Doer
	proto.DepthReporter
	Close()
}

// clientBase is the calling surface the three client types share: the
// transport's Do with every Caller form derived from it, depth reports,
// subscriptions, and Close.
type clientBase struct {
	proto.Calls
	conn transport
}

func newClientBase(t transport) clientBase {
	return clientBase{Calls: proto.Calls{Doer: t}, conn: t}
}

// OnDepth installs f to receive the server's live scheduling depth from
// piggybacked health frames (servers started with Config.DepthFrames).
// The cluster tier's balancer installs this to route on live queue
// depth; f must be cheap — it runs on the reply delivery path. Passing
// nil uninstalls.
func (c *clientBase) OnDepth(f func(depth uint32)) { c.conn.OnDepth(f) }

// Close tears down the connection; outstanding calls fail and later
// calls are refused.
func (c *clientBase) Close() { c.conn.Close() }

// Client is an in-process connection to a Server. It is safe for
// concurrent use and supports pipelining.
type Client struct {
	clientBase
	cc *memnet.ClientConn
}

// Home returns the index of the worker this connection is homed on (its
// RSS queue). Useful for locality-aware sharding and for constructing
// skewed workloads in tests.
func (c *Client) Home() int { return c.cc.ServerConn().Home() }

// DialClient connects to a remote Server over TCP: one client socket,
// dialed once, that never redials — its first failure is final.
func DialClient(addr string, timeout time.Duration) (*TCPClient, error) {
	tc, err := tcpnet.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &TCPClient{newClientBase(tc)}, nil
}

// TCPClient is a TCP connection to a Server, with the same calling
// conventions as Client. Concurrent calls coalesce into one write.
type TCPClient struct {
	clientBase
}

// ConnManager multiplexes many logical Callers onto a small fixed set
// of TCP connections: an application tier with thousands of logical
// clients holds `sockets` sockets and reader goroutines instead of
// thousands, and small concurrent requests from callers sharing a
// socket coalesce into single write syscalls. Each socket is the same
// client socket a TCPClient is, with a dialer added; a call's frame can
// only leave on the socket whose dispatcher issued its ID, so replies
// never cross callers across a redial.
//
// Ownership rules: NewCaller hands out a view of a shared socket —
// closing a returned Caller only retires that caller and never closes
// the socket; Close on the manager closes every socket and fails every
// outstanding request. Sockets are dialed lazily on first use and
// redialed after socket-level failures.
type ConnManager struct {
	cm *tcpnet.ConnManager
}

// NewConnManager creates a manager holding at most sockets physical
// connections to addr.
func NewConnManager(addr string, sockets int, timeout time.Duration) *ConnManager {
	return &ConnManager{cm: tcpnet.NewConnManager(addr, sockets, timeout)}
}

// NewCaller returns a logical Caller multiplexed onto one of the
// manager's sockets (round-robin assignment), with the same calling
// conventions as Client and TCPClient.
func (m *ConnManager) NewCaller() (Caller, error) {
	mc, err := m.cm.NewCaller()
	if err != nil {
		return nil, err
	}
	return &ManagedClient{newClientBase(mc)}, nil
}

// OnDepth installs f to receive the server's live scheduling depth from
// piggybacked health frames, across every socket the manager holds
// (present and future — the hook survives redials). Passing nil
// uninstalls.
func (m *ConnManager) OnDepth(f func(depth uint32)) { m.cm.OnDepth(f) }

// Sockets reports how many physical connections are currently dialed.
func (m *ConnManager) Sockets() int { return m.cm.Sockets() }

// Close tears down every socket; outstanding calls fail.
func (m *ConnManager) Close() { m.cm.Close() }

// ManagedClient is a logical client multiplexed over a ConnManager
// socket. See ConnManager for the ownership rules: its Close retires
// the logical caller, and the shared socket stays open for the
// manager's other callers. Its depth hook is shared by every caller on
// the socket and survives redials.
type ManagedClient struct {
	clientBase
}
