package main

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"zygos"
	"zygos/internal/kv"
)

// serverEnv carries the server role's configuration to the re-exec'd
// child. An environment variable rather than flags, so a test binary can
// play the server role too.
const serverEnv = "ZYGOS_BENCH_SERVER"

type serverConfig struct {
	Kind        kind
	Cores       int
	Partitioned bool
	// Conns is how many connections the generator will dial, and TraceCap
	// the size of each one's span table; TraceCap 0 runs untraced.
	Conns, TraceCap int
}

// serverReady is the child's first line on its control pipe.
type serverReady struct {
	Addr       string
	Gomaxprocs int
}

// schedCounters are the zygos.Stats fields the benchmark reads.
type schedCounters struct {
	Events, Steals, Proxies, Parks, Wakes uint64
}

// traceDump is what a traced server hands back on shutdown: per
// connection (in accept order), traceFields values per request in
// arrival order — ArrivedAt, Request.QueueDelay, handler start, handler
// end; the stamps are CLOCK_MONOTONIC ns.
//
// Handler start is stamped by the middleware, not derived from
// QueueDelay: pipelined requests of one activation share QueueDelay's
// end point, and the wait behind a predecessor on the same connection
// belongs to the queue span, not to the handler.
type traceDump struct {
	Conns   [][]int64
	Dropped uint64
}

const traceFields = 4

// handlerFor builds the application a workload kind runs on. The kv
// store ships behind its Mux; bare skips the Mux so the ladder can price
// dispatch.
func handlerFor(k kind, bare bool) zygos.Handler {
	switch k {
	case kindSpin:
		// cmd/zygos-server's spinHandler, which a package main cannot export.
		return func(w zygos.ResponseWriter, req *zygos.Request) {
			if len(req.Payload) >= 8 {
				ns := binary.LittleEndian.Uint64(req.Payload[:8])
				deadline := time.Now().Add(time.Duration(ns))
				for time.Now().Before(deadline) {
				}
			}
			w.Reply(spinReply)
		}
	case kindKV:
		store := kv.NewStore(64, 256<<20)
		if !bare {
			return store.NewMux().Handler()
		}
		return func(w zygos.ResponseWriter, req *zygos.Request) {
			if req.Method == kv.MethodSet {
				store.HandleSet(w, req)
			} else {
				store.HandleGet(w, req)
			}
		}
	}
	return func(w zygos.ResponseWriter, req *zygos.Request) { w.Reply(req.Payload) }
}

// newServer configures a server as cmd/zygos-server ships it.
func newServer(cfg serverConfig) (*zygos.Server, error) {
	return zygos.NewServer(zygos.Config{
		Cores:       cfg.Cores,
		Handler:     handlerFor(cfg.Kind, false),
		Partitioned: cfg.Partitioned,
		DepthFrames: true,
	})
}

// tracer is the benchmark's own middleware. Connection IDs count from 1
// in accept order, and a connection's requests run one at a time, so
// its table needs no lock.
type tracer struct {
	clk     clock
	conns   [][]int64
	dropped atomic.Uint64
}

func newTracer(conns, capPerConn int) *tracer {
	t := &tracer{clk: newClock(), conns: make([][]int64, conns)}
	for i := range t.conns {
		t.conns[i] = make([]int64, 0, traceFields*capPerConn)
	}
	return t
}

func (t *tracer) middleware(next zygos.Handler) zygos.Handler {
	return func(w zygos.ResponseWriter, req *zygos.Request) {
		// next may recycle req, so read it first.
		i, arrived, qdelay := req.Conn-1, t.clk.at(req.ArrivedAt), int64(req.QueueDelay)
		start := t.clk.now()
		next(w, req)
		end := t.clk.now()
		if i >= uint64(len(t.conns)) || len(t.conns[i])+traceFields > cap(t.conns[i]) {
			t.dropped.Add(1)
			return
		}
		t.conns[i] = append(t.conns[i], arrived, qdelay, start, end)
	}
}

func (t *tracer) dump() traceDump {
	return traceDump{Conns: t.conns, Dropped: t.dropped.Load()}
}

// serverMain is the server role: serve on loopback until told to quit on
// stdin, answering "stats" with the scheduler counters in between.
func serverMain(cfgJSON string) error {
	var cfg serverConfig
	if err := json.Unmarshal([]byte(cfgJSON), &cfg); err != nil {
		return fmt.Errorf("server config: %w", err)
	}
	srv, err := newServer(cfg)
	if err != nil {
		return err
	}
	var tr *tracer
	if cfg.TraceCap > 0 {
		tr = newTracer(cfg.Conns, cfg.TraceCap)
		srv.Use(tr.middleware) // outermost: its handler span covers dispatch
	}
	srv.Use(srv.LatencyRecording())
	// One listener, so accept order and with it each connection's home
	// core repeat from run to run.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		srv.Serve(l)
		close(served)
	}()

	out := json.NewEncoder(os.Stdout)
	out.Encode(serverReady{Addr: l.Addr().String(), Gomaxprocs: runtime.GOMAXPROCS(0)})
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch strings.TrimSpace(in.Text()) {
		case "stats":
			st := srv.Stats()
			out.Encode(schedCounters{st.Events, st.Steals, st.Proxies, st.Parks, st.Wakes})
		case "quit":
			l.Close()
			<-served
			srv.Flush(2 * time.Second)
			if tr != nil {
				if err := gob.NewEncoder(os.Stdout).Encode(tr.dump()); err != nil {
					return err
				}
			}
			srv.Close()
			return nil
		}
	}
	return nil // stdin closed: the generator is gone
}

// serverProc is the generator's handle on the server process.
type serverProc struct {
	cmd   *exec.Cmd
	in    *bufio.Writer
	out   *bufio.Reader
	ready serverReady
}

func startServer(cfg serverConfig) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), serverEnv+"="+string(cfgJSON))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, in: bufio.NewWriter(stdin), out: bufio.NewReader(stdout)}
	if err := p.readJSON(&p.ready); err != nil {
		p.kill()
		return nil, fmt.Errorf("server did not start: %w", err)
	}
	return p, nil
}

func (p *serverProc) readJSON(v any) error {
	line, err := p.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

func (p *serverProc) command(c string) error {
	if _, err := p.in.WriteString(c + "\n"); err != nil {
		return err
	}
	return p.in.Flush()
}

func (p *serverProc) stats() (schedCounters, error) {
	var s schedCounters
	if err := p.command("stats"); err != nil {
		return s, err
	}
	return s, p.readJSON(&s)
}

// stop shuts the server down and waits for it to exit, returning its
// span tables if it was traced.
func (p *serverProc) stop(traced bool) (traceDump, error) {
	var d traceDump
	if err := p.command("quit"); err != nil {
		p.kill()
		return d, err
	}
	var derr error
	if traced {
		derr = gob.NewDecoder(p.out).Decode(&d)
	}
	exited := make(chan error, 1)
	go func() { exited <- p.cmd.Wait() }()
	select {
	case err := <-exited:
		if derr == nil {
			derr = err
		}
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-exited
		derr = fmt.Errorf("server did not exit; killed")
	}
	return d, derr
}

func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}
