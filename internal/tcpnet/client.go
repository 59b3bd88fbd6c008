package tcpnet

import (
	"bufio"
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
// of dialing one Client each. Its calling surface is proto.Calls over Do.
type Client struct {
	proto.Calls
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
	c.Calls = proto.Calls{Doer: c}
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

// OnDepth implements proto.DepthReporter.
func (c *Client) OnDepth(f func(depth uint32)) {
	c.disp.SetDepthFunc(f)
}

// Do encodes the call into a pooled buffer, writes and flushes it. The
// write is flushed immediately (open-loop latency measurement cannot
// tolerate client-side batching). After Close the call is refused.
func (c *Client) Do(call proto.Call) error {
	m, err := c.disp.Issue(call)
	if err != nil {
		return err
	}
	frame := proto.AppendMessage(bufpool.Get(proto.FrameSizeMsg(m)), m)
	err = c.write(frame)
	bufpool.Put(frame)
	if err != nil {
		return c.disp.Fail(m, err)
	}
	return nil
}

func (c *Client) write(frame []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return net.ErrClosed
	}
	if _, err := c.wr.Write(frame); err != nil {
		return err
	}
	return c.wr.Flush()
}

// Close shuts the connection down; outstanding calls fail and later
// calls are refused.
func (c *Client) Close() {
	c.wmu.Lock()
	c.closed = true
	c.wmu.Unlock()
	c.nc.Close()
	c.disp.Close()
}
