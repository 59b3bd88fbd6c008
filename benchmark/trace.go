package main

import (
	"slices"
)

// The spans of one request, which share its (connection, ordinal) id.
// rpc is the parent of the four after it, and they tile it: their means
// sum to its mean by construction.
//
//	gen.wait  due -> send        generator lag
//	rpc       send -> reply      what the client call took
//	ingress   send -> ArrivedAt  client encode, write, kernel, poller read, ingress ring, parse
//	queue     ArrivedAt -> start ready ring, steal, wait behind the connection's earlier requests
//	handler   start -> end       middleware, Mux dispatch, application
//	egress    end -> reply       reply encode, TX sequencer, flush, kernel, client read, Dispatcher
const (
	spanGenWait = iota
	spanRPC
	spanIngress
	spanQueue
	spanHandler
	spanEgress
	numSpans
)

var spanNames = [numSpans]string{"gen_wait", "rpc", "ingress", "queue", "handler", "egress"}

// genStamp is the generator's record of one measured request.
type genStamp struct {
	conn            uint8
	ord             uint32 // ordinal among the connection's requests since dial
	due, send, recv int64
	spinNs          int64 // what a spin request asked for
}

// joined is the outcome of joining generator stamps to server tables.
type joined struct {
	spans    [numSpans][]int64 // ns
	qdelay   []int64           // Request.QueueDelay, ns
	overrun  []int64           // handler span minus requested spin, ns
	unjoined int
}

// joinSpans pairs each generator stamp with the server's record of the
// same (connection, ordinal). The pairing needs no id on the wire: a
// connection's requests are handled, and its replies sent, in order. A
// request the server's table has no row for is counted unjoined.
func joinSpans(reqs []genStamp, d traceDump) joined {
	var j joined
	for _, r := range reqs {
		at := int(r.ord) * traceFields
		if int(r.conn) >= len(d.Conns) || at+traceFields > len(d.Conns[r.conn]) {
			j.unjoined++
			continue
		}
		row := d.Conns[r.conn][at : at+traceFields]
		arrived, qdelay, start, end := row[0], row[1], row[2], row[3]
		for s, v := range [numSpans]int64{
			spanGenWait: r.send - r.due,
			spanRPC:     r.recv - r.send,
			spanIngress: arrived - r.send,
			spanQueue:   start - arrived,
			spanHandler: end - start,
			spanEgress:  r.recv - end,
		} {
			j.spans[s] = append(j.spans[s], v)
		}
		j.qdelay = append(j.qdelay, qdelay)
		j.overrun = append(j.overrun, end-start-r.spinNs)
	}
	return j
}

// stamps collects the generator's side of an open loop's measured part.
func (r *openRun) stamps() []genStamp {
	var out []genStamp
	t := r.ph.tab
	r.measured(func(i int, due int64, _ int) {
		out = append(out, genStamp{
			conn: t.conn[i], ord: r.ph.ord[i],
			due: due, send: r.ph.sendAt[i], recv: r.ph.recvAt[i], spinNs: t.spinNs(i),
		})
	})
	return out
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

// openOnce sets up a server for w (traced if traceCap > 0), runs tab as
// one open loop against it and stops it, adding what was attempted to
// res.
func openOnce(w workload, tab *table, opt runOptions, traceCap int, res *result) (*openRun, traceDump, error) {
	s, t, _, err := setUp(w, tab, opt, traceCap)
	if err != nil {
		return nil, traceDump{}, err
	}
	res.tally.add(t)
	res.serverProcs = s.srv.ready.Gomaxprocs
	open, err := s.openLoop(tab)
	dump, terr := s.tearDown()
	if err == nil {
		err = terr
	}
	if err != nil {
		return nil, traceDump{}, err
	}
	res.tally.add(open.tally)
	return open, dump, nil
}

// runTraced measures the per-layer metrics of one workload. End-to-end
// metrics are never taken from it.
func runTraced(w workload, opt runOptions) (*result, error) {
	res := &result{workload: w.name}

	// Untraced open loop: the base the tracing overhead is measured from.
	base, _, err := openOnce(w, openTable(w, opt, opt.share(untracedShare)), opt, 0, res)
	if err != nil {
		return nil, err
	}
	baseStats := base.stats()

	// Traced open loop. A connection gets about an equal share of the
	// requests; the table has a quarter more room than that.
	tab := openTable(w, opt, opt.share(tracedShare))
	res.tableHash = tab.hash()
	traceCap := (kvKeys+w.warmup+tab.n)/w.conns*5/4 + 10000
	open, dump, err := openOnce(w, tab, opt, traceCap, res)
	if err != nil {
		return nil, err
	}
	st := open.stats()
	res.lateFrac = max(st.lateFrac, baseStats.lateFrac)
	j := joinSpans(open.stamps(), dump)

	lad, err := runLadder(tab, opt)
	if err != nil {
		return nil, err
	}

	res.add("gen.lag_p50_us", st.lagP50, "us")
	res.add("gen.lag_p99_us", st.lagP99, "us")
	res.add("gen.late_frac", st.lateFrac, "ratio")
	for i, name := range spanNames {
		v := j.spans[i]
		res.add("span."+name+"_mean_us", mean(v)/1e3, "us")
		slices.Sort(v)
		res.add("span."+name+"_p50_us", usOf(quantile(v, 0.50)), "us")
		res.add("span."+name+"_p95_us", usOf(quantile(v, 0.95)), "us")
	}
	res.add("trace.unjoined", float64(j.unjoined)+float64(dump.Dropped), "count")
	res.add("trace.overhead_frac", st.p50/baseStats.p50-1, "ratio")

	a, b := open.after.sched, open.before.sched
	events := float64(max(a.Events-b.Events, 1))
	res.add("core.steal_frac", float64(a.Steals-b.Steals)/events, "ratio")
	res.add("core.proxies_per_req", float64(a.Proxies-b.Proxies)/events, "1/req")
	res.add("core.parks_per_req", float64(a.Parks-b.Parks)/events, "1/req")
	res.add("core.wakes_per_req", float64(a.Wakes-b.Wakes)/events, "1/req")
	slices.Sort(j.qdelay)
	res.add("core.queue_p50_us", usOf(quantile(j.qdelay, 0.50)), "us")
	res.add("core.queue_p95_us", usOf(quantile(j.qdelay, 0.95)), "us")
	res.add("tcpnet.sys_frac", st.sysFrac, "ratio")
	res.add("tcpnet.ctxsw_per_req", st.ctxPerRq, "1/req")
	res.add("handler.overrun_us", mean(j.overrun)/1e3, "us")

	res.add("proto.codec_ns", lad.codecNs, "ns")
	res.add("proto.allocs", lad.codecAllocs, "1/req")
	res.add("bufpool.getput_ns", lad.getputNs, "ns")
	res.add("core.hop_us", lad.hopUs, "us")
	res.add("core.batch_ns", lad.batchNs, "ns")
	res.add("memnet.rtt_us", lad.memRttUs, "us")
	res.add("tcpnet.rtt_us", lad.tcpRttUs, "us")
	res.add("tcpnet.self_us", lad.tcpSelfUs, "us")
	res.add("zygos.dispatch_ns", lad.dispatchNs, "ns")
	res.add("kv.op_ns", lad.kvOpNs, "ns")
	res.add("kv.hit_frac", lad.kvHitFrac, "ratio")

	res.addDiag("traced_p50_us", st.p50, "us")
	res.addDiag("untraced_p50_us", baseStats.p50, "us")
	res.addDiag("traced_samples", float64(len(st.all)), "count")
	res.addDiag("cpu_us_per_req", st.cpuUsPerReq, "us")
	return res, nil
}
