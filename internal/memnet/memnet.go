// Package memnet provides an in-process transport for the runtime: a
// client "connection" whose request frames are delivered straight into the
// runtime's ingress path and whose replies come back through the normal
// home-core TX path. It exists so tests, examples and benchmarks can
// exercise the full scheduling architecture — parser, shuffle queue,
// stealing, remote syscalls — without sockets.
package memnet

import (
	"sync/atomic"

	"zygos/internal/core"
	"zygos/internal/proto"
)

// Transport creates in-memory client connections bound to one runtime.
type Transport struct {
	rt *core.Runtime
}

// NewTransport binds a transport to a runtime.
func NewTransport(rt *core.Runtime) *Transport {
	return &Transport{rt: rt}
}

// ClientConn is one in-memory client connection. It is safe for concurrent
// use; requests may be pipelined. Its calling surface is proto.Calls over
// Do.
type ClientConn struct {
	proto.Calls
	rt     *core.Runtime
	server *core.Conn
	disp   *proto.Dispatcher
	closed atomic.Bool
}

// replyWriter delivers the server's reply frames into the client-side
// dispatcher, standing in for the response path of a socket.
type replyWriter struct {
	cc *ClientConn
}

// WriteReply implements core.ReplyWriter.
func (w replyWriter) WriteReply(frame []byte) error {
	return w.cc.disp.Feed(frame)
}

// CloseTransport implements core.TransportCloser: when the runtime
// poisons the connection (malformed stream), outstanding client calls
// fail instead of hanging.
func (w replyWriter) CloseTransport() {
	w.cc.disp.Close()
	w.cc.disp.ReleaseParser()
}

// Dial creates a new client connection. The server side is registered with
// the runtime and steered to its home worker by RSS, as any flow would be.
func (t *Transport) Dial() *ClientConn {
	cc := &ClientConn{rt: t.rt, disp: proto.NewDispatcher()}
	cc.Calls = proto.Calls{Doer: cc}
	cc.server = t.rt.NewConn(replyWriter{cc})
	return cc
}

// ServerConn exposes the runtime-side connection, for tests that assert on
// scheduling state.
func (c *ClientConn) ServerConn() *core.Conn { return c.server }

// Do encodes the call into a pooled segment and hands it straight to the
// runtime — no intermediate copies. When the home worker's ingress ring
// is full this blocks (spin-then-park) until the kernel step drains it:
// the same backpressure a socket write would exert. After Close the
// dispatcher refuses the call.
func (c *ClientConn) Do(call proto.Call) error {
	m, err := c.disp.Issue(call)
	if err != nil {
		return err
	}
	frame := proto.AppendMessage(c.rt.GetSegment(proto.FrameSizeMsg(m)), m)
	if err := c.rt.IngressOwned(c.server, frame); err != nil {
		return c.disp.Fail(m, err)
	}
	return nil
}

// OnDepth implements proto.DepthReporter.
func (c *ClientConn) OnDepth(f func(depth uint32)) {
	c.disp.SetDepthFunc(f)
}

// WriteRaw injects raw bytes into the server-side stream, bypassing
// framing. Tests use it to exercise malformed input handling.
func (c *ClientConn) WriteRaw(data []byte) error {
	return c.rt.Ingress(c.server, data)
}

// Close tears the connection down: the server side stops accepting
// ingress, outstanding calls fail with ErrDispatcherClosed, and later
// calls are refused.
func (c *ClientConn) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	c.rt.CloseConn(c.server)
	c.disp.Close()
	c.disp.ReleaseParser()
}
