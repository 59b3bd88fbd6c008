package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"zygos"
	"zygos/internal/bufpool"
	"zygos/internal/core"
	"zygos/internal/kv"
	"zygos/internal/proto"
)

// ladder is the socket-free part of the per-layer ledger: each rung
// calls one layer's exported functions in this process, over the
// workload's own requests, so the differences between rungs split what
// the spans of the two-process run lump together.
type ladder struct {
	codecNs, codecAllocs float64 // proto: encode + parse a request and its reply
	getputNs             float64 // bufpool: one Get + Put at the workload's frame sizes
	hopUs                float64 // core: one frame into an idle runtime, to its reply
	batchNs              float64 // core: per frame, 64 frames per Ingress
	memRttUs             float64 // zygos over memnet, one outstanding
	tcpRttUs             float64 // zygos over loopback TCP, one outstanding
	tcpSelfUs            float64 // TCP - memnet, per request
	dispatchNs           float64 // memnet - memnet without Mux and middleware, per request
	kvOpNs, kvHitFrac    float64 // kv.Store called directly
}

func runLadder(tab *table, opt runOptions) (ladder, error) {
	d := opt.share(rungShare)
	var l ladder
	var err error
	if l.codecNs, l.codecAllocs, err = rungCodec(tab, d); err != nil {
		return l, err
	}
	l.getputNs = rungBufpool(tab, d)
	if l.hopUs, l.batchNs, err = rungCore(d); err != nil {
		return l, err
	}
	if l.memRttUs, l.tcpRttUs, l.tcpSelfUs, l.dispatchNs, err = rungRTT(tab, 3*d); err != nil {
		return l, err
	}
	kvTab := tab
	if tab.kind != kindKV {
		// The store rung needs kv requests; other workloads price it on
		// the kv-etc shape drawn from the same seed.
		etc, _ := findWorkload("kv-etc")
		kvTab = newTable(etc, opt.seed, 1<<16)
	}
	l.kvOpNs, l.kvHitFrac = rungKV(kvTab, d)
	return l, nil
}

// every calls f with successive table indexes until d has passed,
// looking at the clock once per 64 calls, and returns the call count
// and the time taken.
func every(tab *table, d time.Duration, f func(i int)) (int, time.Duration) {
	start := time.Now()
	for n := 0; ; n++ {
		if n%64 == 0 && time.Since(start) >= d {
			return max(n, 1), time.Since(start)
		}
		f(n % tab.n)
	}
}

func rungCodec(tab *table, d time.Duration) (ns, allocs float64, err error) {
	var p proto.Parser
	defer p.ReleaseBuffer()
	buf := make([]byte, 0, 16<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, took := every(tab, d, func(i int) {
		for _, payload := range [2][]byte{tab.payload(i), tab.reply(i)} {
			buf = proto.AppendFrameV3(buf[:0], proto.Message{ID: uint64(i), Method: tab.method(i), Payload: payload})
			p.Feed(buf)
			m, ok, perr := p.Next()
			if perr != nil || !ok || !bytes.Equal(m.Payload, payload) {
				err = fmt.Errorf("proto rung: frame %d did not round-trip (%v)", i, perr)
			}
			m.Release()
		}
	})
	runtime.ReadMemStats(&after)
	return float64(took.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n), err
}

func rungBufpool(tab *table, d time.Duration) float64 {
	n, took := every(tab, d, func(i int) {
		bufpool.Put(bufpool.Get(proto.FrameSizeV3(len(tab.payload(i)))))
		bufpool.Put(bufpool.Get(proto.FrameSizeV3(len(tab.reply(i)))))
	})
	return float64(took.Nanoseconds()) / float64(2*n)
}

// byteCounter is a core.ReplyWriter that signals once the runtime has
// written as many reply bytes as the caller is waiting for.
type byteCounter struct {
	left atomic.Int64
	done chan struct{}
}

func (b *byteCounter) WriteReply(frame []byte) error {
	if b.left.Add(-int64(len(frame))) == 0 {
		b.done <- struct{}{}
	}
	return nil
}

// rungCore times the scheduler alone: frames handed to Ingress, replies
// counted at the ReplyWriter, no transport on either side. hop sends one
// frame into a runtime whose workers have had time to park; batch sends
// 64 per call with no pause.
func rungCore(d time.Duration) (hopUs, batchNs float64, err error) {
	rt, err := core.New(core.Config{
		Cores: runtime.NumCPU(),
		Handler: core.HandlerFunc(func(ctx *core.Ctx, _ *core.Conn, m proto.Message) {
			ctx.Reply(m.Payload)
		}),
	})
	if err != nil {
		return 0, 0, err
	}
	defer rt.Close()
	wr := &byteCounter{done: make(chan struct{}, 1)}
	c := rt.NewConn(wr)
	defer rt.CloseConn(c)

	const batch = 64
	payload := make([]byte, 8)
	one := proto.AppendFrameV3(nil, proto.Message{ID: 1, Payload: payload})
	many := bytes.Repeat(one, batch)
	round := func(frames []byte) (time.Duration, error) {
		wr.left.Store(int64(len(frames))) // an 8-byte echo's reply is as long as its request
		t0 := time.Now()
		if err := rt.Ingress(c, frames); err != nil {
			return 0, err
		}
		select {
		case <-wr.done:
			return time.Since(t0), nil
		case <-time.After(drainTimeout):
			return 0, fmt.Errorf("core rung: no reply within %v", drainTimeout)
		}
	}
	var hops, batches []float64
	for start := time.Now(); time.Since(start) < d; {
		time.Sleep(300 * time.Microsecond) // let the workers park
		took, err := round(one)
		if err != nil {
			return 0, 0, err
		}
		hops = append(hops, float64(took.Nanoseconds())/1e3)
	}
	for start := time.Now(); time.Since(start) < d; {
		took, err := round(many)
		if err != nil {
			return 0, 0, err
		}
		batches = append(batches, float64(took.Nanoseconds())/batch)
	}
	return median(hops), median(batches), nil
}

// rttTarget is an in-process zygos.Server, set up as the server role
// sets it up, with one client connected to it.
type rttTarget struct {
	srv *zygos.Server
	l   net.Listener // nil over memnet
	cl  zygos.Caller
	buf []byte
}

// newRTTTarget starts a server for tab's workload and connects to it
// over memnet or loopback TCP. bare leaves out the Mux and the
// middleware, to price dispatch by difference.
func newRTTTarget(tab *table, bare, tcp bool) (*rttTarget, error) {
	srv, err := zygos.NewServer(zygos.Config{
		Cores: runtime.NumCPU(), Handler: handlerFor(tab.kind, bare), DepthFrames: true,
	})
	if err != nil {
		return nil, err
	}
	if !bare {
		srv.Use(srv.LatencyRecording())
	}
	t := &rttTarget{srv: srv, cl: srv.NewClient()}
	if tcp {
		if t.l, err = net.Listen("tcp", "127.0.0.1:0"); err == nil {
			go srv.Serve(t.l)
			t.cl, err = zygos.DialClient(t.l.Addr().String(), 5*time.Second)
		}
		if err != nil {
			t.close()
			return nil, err
		}
	}
	if tab.kind == kindKV {
		for k := range tab.keys {
			if t.buf, err = t.cl.CallMethodInto(kv.MethodSet, tab.sets[k], t.buf[:0]); err != nil {
				t.close()
				return nil, fmt.Errorf("rtt rung preload: %w", err)
			}
		}
	}
	return t, nil
}

func (t *rttTarget) close() {
	if t.cl != nil {
		t.cl.Close()
	}
	if t.l != nil {
		t.l.Close()
	}
	t.srv.Close()
}

// call times request i of tab, one outstanding, and checks the reply.
func (t *rttTarget) call(tab *table, i int) (int64, error) {
	var err error
	t0 := time.Now()
	t.buf, err = t.cl.CallMethodInto(tab.method(i), tab.payload(i), t.buf[:0])
	took := int64(time.Since(t0))
	if ok, _ := tab.check(i, t.buf); err != nil || !ok {
		return took, fmt.Errorf("rtt rung: request %d: wrong reply (%v)", i, err)
	}
	return took, nil
}

// rungRTT sends each request to three servers in turn — memnet,
// loopback TCP, and memnet without Mux or middleware — and reports the
// medians of the memnet and TCP round trips and of the per-request
// differences TCP - memnet and memnet - bare. Pairing the calls keeps
// the host's drift, which is larger than the differences, out of them;
// so does reversing the order every other request, which gives the two
// memnet servers the same predecessors (a call is slower after a TCP
// call than after a memnet one).
func rungRTT(tab *table, d time.Duration) (memUs, tcpUs, selfUs, dispatchNs float64, err error) {
	var targets [3]*rttTarget
	for i, tcp := range [3]bool{false, true, false} {
		if targets[i], err = newRTTTarget(tab, i == 2, tcp); err != nil {
			return
		}
		defer targets[i].close()
	}
	var mem, tcp, self, dispatch []int64
	every(tab, d, func(i int) {
		var took [3]int64
		for n := range targets {
			k := n
			if i%2 == 1 {
				k = len(targets) - 1 - n
			}
			var cerr error
			if took[k], cerr = targets[k].call(tab, i); cerr != nil {
				err = cerr
			}
		}
		mem, tcp = append(mem, took[0]), append(tcp, took[1])
		self, dispatch = append(self, took[1]-took[0]), append(dispatch, took[0]-took[2])
	})
	for _, v := range [][]int64{mem, tcp, self, dispatch} {
		slices.Sort(v)
	}
	return usOf(quantile(mem, 0.5)), usOf(quantile(tcp, 0.5)), usOf(quantile(self, 0.5)), float64(quantile(dispatch, 0.5)), err
}

func rungKV(tab *table, d time.Duration) (opNs, hitFrac float64) {
	store := kv.NewStore(64, 256<<20)
	for k := range tab.keys {
		store.Set(tab.keys[k], tab.vals[k])
	}
	var dst []byte
	var gets, hits int
	n, took := every(tab, d, func(i int) {
		k := tab.key[i]
		if tab.isSet[i] {
			store.Set(tab.keys[k], tab.vals[k])
			return
		}
		var ok bool
		dst, ok = store.AppendGet(dst[:0], tab.keys[k])
		gets++
		if ok && bytes.Equal(dst, tab.vals[k]) {
			hits++
		}
	})
	return float64(took.Nanoseconds()) / float64(n), float64(hits) / float64(max(gets, 1))
}
