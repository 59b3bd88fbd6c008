package tcpnet

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"zygos/internal/bufpool"
	"zygos/internal/proto"
)

// clientReaders counts the client-side read loops alive in this process
// (Client and ConnManager sockets). It is process-wide on purpose: what
// it tells a server transport in the same process is that goroutines
// here depend on Go's netpoller being served promptly, which decides how
// the server's workers may block (sockSet.wait).
var clientReaders atomic.Int32

// Client is a TCP RPC client speaking the proto framing. It supports
// pipelined concurrent requests over one connection. Applications with
// many logical callers should multiplex them over a ConnManager instead
// of dialing one Client each.
type Client struct {
	nc   net.Conn
	disp *proto.Dispatcher

	wmu    sync.Mutex
	wr     *bufio.Writer
	closed bool
}

// Dial connects to a tcpnet server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return NewClientOn(nc), nil
}

// NewClientOn builds a client over an already-established connection —
// the seam where a fault-injecting or otherwise-wrapped net.Conn slots
// under the RPC stack. The client owns nc and closes it on Close.
func NewClientOn(nc net.Conn) *Client {
	c := &Client{nc: nc, disp: proto.NewDispatcher(), wr: bufio.NewWriterSize(nc, 32<<10)}
	clientReaders.Add(1)
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	defer clientReaders.Add(-1)
	buf := make([]byte, readBufSize)
	for {
		n, err := c.nc.Read(buf)
		if n > 0 {
			if derr := c.disp.Feed(buf[:n]); derr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	c.disp.Close()
	c.disp.ReleaseParser()
}

// OnDepth installs f to receive the server's scheduling depth from
// piggybacked health frames (servers started with depth reporting
// append one to each reply batch). Passing nil uninstalls. f must be
// cheap — it runs on the read loop.
func (c *Client) OnDepth(f func(depth uint32)) {
	c.disp.SetDepthFunc(f)
}

// sendFrame encodes m into a pooled buffer, writes and flushes it.
// Legacy (method-less) sends travel as v2 frames, method-routed sends
// as v3. The write is flushed immediately (open-loop latency
// measurement cannot tolerate client-side batching).
func (c *Client) sendFrame(m proto.Message) error {
	frame := proto.AppendMessage(bufpool.Get(proto.FrameSizeMsg(m)), m)
	err := c.write(frame)
	bufpool.Put(frame)
	return err
}

// SendAsync issues a request; cb runs exactly once with the reply or an
// error. Replies carrying a non-OK wire status surface as
// *proto.StatusError. The resp slice is valid only for the duration of
// the callback; retain a copy.
func (c *Client) SendAsync(payload []byte, cb func(resp []byte, err error)) error {
	if len(payload) > proto.MaxPayloadV2 {
		return proto.ErrPayloadTooLarge
	}
	id, err := c.disp.Register(cb)
	if err != nil {
		return err
	}
	return c.sendFrame(proto.Message{ID: id, Payload: payload, V2: true})
}

// SendMethodAsync is SendAsync with a method identifier: the request
// travels as a v3 frame and the server routes it by method.
func (c *Client) SendMethodAsync(method uint16, payload []byte, cb func(resp []byte, err error)) error {
	if len(payload) > proto.MaxPayloadV2 {
		return proto.ErrPayloadTooLarge
	}
	id, err := c.disp.Register(cb)
	if err != nil {
		return err
	}
	return c.sendFrame(proto.Message{ID: id, Method: method, Payload: payload, V3: true})
}

// SendMethodBudgetAsync is SendMethodAsync with a deadline budget
// stamped on the wire (FlagDeadline extension): the server sees the
// remaining time the caller will wait and sheds or EDF-schedules the
// request accordingly. d <= 0 sends no budget.
func (c *Client) SendMethodBudgetAsync(method uint16, payload []byte, d time.Duration, cb func(resp []byte, err error)) error {
	if len(payload) > proto.MaxPayloadV2 {
		return proto.ErrPayloadTooLarge
	}
	id, err := c.disp.Register(cb)
	if err != nil {
		return err
	}
	return c.sendFrame(proto.Message{ID: id, Method: method, Payload: payload, V3: true, Budget: proto.BudgetMicros(d)})
}

// SendOneWay issues a fire-and-forget request: the server executes it
// but sends no reply, and no client-side state is kept.
func (c *Client) SendOneWay(payload []byte) error {
	if len(payload) > proto.MaxPayloadV2 {
		return proto.ErrPayloadTooLarge
	}
	return c.sendFrame(proto.Message{Flags: proto.FlagOneWay, Payload: payload, V2: true})
}

// SendMethodOneWay is SendOneWay with a method identifier (v3 frame).
func (c *Client) SendMethodOneWay(method uint16, payload []byte) error {
	if len(payload) > proto.MaxPayloadV2 {
		return proto.ErrPayloadTooLarge
	}
	return c.sendFrame(proto.Message{Flags: proto.FlagOneWay, Method: method, Payload: payload, V3: true})
}

func (c *Client) write(frame []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return errors.New("tcpnet: client closed")
	}
	if _, err := c.wr.Write(frame); err != nil {
		return err
	}
	return c.wr.Flush()
}

// Call issues a request and blocks for the reply. The returned slice is
// owned by the caller.
func (c *Client) Call(payload []byte) ([]byte, error) {
	return c.CallInto(payload, nil)
}

// CallInto issues a request, blocks for its reply, and appends the reply
// payload to buf, returning the extended slice. Passing a reused buffer
// makes the client side of the round trip allocation-free at steady
// state.
func (c *Client) CallInto(payload, buf []byte) ([]byte, error) {
	w := proto.GetWaiter(buf)
	if err := c.SendAsync(payload, w.Callback()); err != nil {
		w.Abandon()
		return nil, err
	}
	return w.Wait()
}

// CallMethod issues a method-routed request and blocks for its reply.
func (c *Client) CallMethod(method uint16, payload []byte) ([]byte, error) {
	return c.CallMethodInto(method, payload, nil)
}

// CallMethodInto is CallMethod with a caller-owned reply buffer, the
// allocation-free closed-loop form.
func (c *Client) CallMethodInto(method uint16, payload, buf []byte) ([]byte, error) {
	w := proto.GetWaiter(buf)
	if err := c.SendMethodAsync(method, payload, w.Callback()); err != nil {
		w.Abandon()
		return nil, err
	}
	return w.Wait()
}

// CallTimeout is Call bounded by d: on expiry it returns
// proto.ErrCallTimeout promptly and the late reply, if it ever arrives,
// is discarded at the waiter. d <= 0 means no deadline.
func (c *Client) CallTimeout(payload []byte, d time.Duration) ([]byte, error) {
	if len(payload) > proto.MaxPayloadV2 {
		return nil, proto.ErrPayloadTooLarge
	}
	w := proto.GetWaiter(nil)
	id, err := c.disp.Register(w.Callback())
	if err != nil {
		w.Abandon()
		return nil, err
	}
	// The deadline doubles as the wire budget (see SendMethodBudgetAsync).
	if err := c.sendFrame(proto.Message{ID: id, Payload: payload, V2: true, Budget: proto.BudgetMicros(d)}); err != nil {
		w.Abandon()
		return nil, err
	}
	return w.WaitTimeout(d)
}

// CallMethodTimeout is CallMethod bounded by d (see CallTimeout).
func (c *Client) CallMethodTimeout(method uint16, payload []byte, d time.Duration) ([]byte, error) {
	w := proto.GetWaiter(nil)
	if err := c.SendMethodBudgetAsync(method, payload, d, w.Callback()); err != nil {
		w.Abandon()
		return nil, err
	}
	return w.WaitTimeout(d)
}

// Subscribe sends a v4 SUBSCRIBE for topic carrying spec (an encoded
// pubsub subscription spec: policy, queue capacity, filter), installs h
// to receive matching PUSH frames, and blocks for the server's ack.
// Returns the client-chosen subscription ID that demultiplexes the
// pushes. h runs on the read loop and must not block; the payload slice
// is valid only for the duration of the call.
func (c *Client) Subscribe(topic uint16, spec []byte, h func(frameID uint32, payload []byte)) (uint32, error) {
	subID, err := c.disp.RegisterPush(h)
	if err != nil {
		return 0, err
	}
	w := proto.GetWaiter(nil)
	id, err := c.disp.Register(w.Callback())
	if err != nil {
		c.disp.UnregisterPush(subID)
		w.Abandon()
		return 0, err
	}
	if err := c.sendFrame(proto.Message{ID: id, Method: topic, SubID: subID, Kind: proto.KindSubscribe, V4: true, Payload: spec}); err != nil {
		c.disp.UnregisterPush(subID)
		w.Abandon()
		return 0, err
	}
	if _, err := w.Wait(); err != nil {
		c.disp.UnregisterPush(subID)
		return 0, err
	}
	return subID, nil
}

// Unsubscribe retires subscription subID on topic: the push handler is
// removed immediately (pushes already in flight may deliver once) and
// the server acks the v4 UNSUBSCRIBE.
func (c *Client) Unsubscribe(topic uint16, subID uint32) error {
	c.disp.UnregisterPush(subID)
	w := proto.GetWaiter(nil)
	id, err := c.disp.Register(w.Callback())
	if err != nil {
		w.Abandon()
		return err
	}
	if err := c.sendFrame(proto.Message{ID: id, Method: topic, SubID: subID, Kind: proto.KindUnsubscribe, V4: true}); err != nil {
		w.Abandon()
		return err
	}
	_, err = w.Wait()
	return err
}

// Close shuts the connection down; outstanding calls fail.
func (c *Client) Close() {
	c.wmu.Lock()
	c.closed = true
	c.wmu.Unlock()
	c.nc.Close()
	c.disp.Close()
}
