package zygos

import (
	"errors"

	"zygos/internal/cluster"
	"zygos/internal/kvwire"
)

// Cluster tier: a ClusterCaller fronts N zygos servers behind one
// Caller, adding tail-aware balancing (P2C/JSQ on piggybacked depth),
// hedged requests past an adaptive per-route P99 deadline, and
// replica-aware keyed routing on a consistent-hash ring. See package
// internal/cluster for the mechanism documentation.
//
//	cl := zygos.NewCluster(zygos.ClusterConfig{
//		Policy: zygos.PolicyP2C,
//		Hedge:  zygos.HedgeConfig{Enabled: true},
//	})
//	cl.Add("a", clientA)
//	cl.Add("b", clientB)
//	resp, err := cl.CallMethod(method, payload) // a Caller, as before
//
// Mounted behind ProxyHandler on a front server, the cluster becomes a
// standalone proxy tier (cmd/zygos-proxy).

// ClusterCaller fans requests over a set of backends — any Doer, so
// every zygos client type and another ClusterCaller; it implements
// Caller, so applications swap a single-server client for a cluster
// without code changes.
type ClusterCaller = cluster.Cluster

// ClusterConfig parameterizes a ClusterCaller.
type ClusterConfig = cluster.Config

// HedgeConfig configures duplicate requests past the adaptive per-route
// deadline.
type HedgeConfig = cluster.HedgeConfig

// Balancer is the load-aware backend picker the cluster routes with.
type Balancer = cluster.Balancer

// ClusterStats snapshots the cluster's tail-management and health
// counters.
type ClusterStats = cluster.Stats

// ClusterBackendStats is one backend's slice of the cluster load and
// health view.
type ClusterBackendStats = cluster.BackendStats

// BreakerConfig parameterizes the cluster's per-backend circuit
// breaker; the zero value enables it with defaults.
type BreakerConfig = cluster.BreakerConfig

// ClusterPolicy selects the unkeyed balancing policy.
type ClusterPolicy = cluster.Policy

// Balancing policies for ClusterConfig.Policy.
const (
	// PolicyRoundRobin rotates through backends, load-blind.
	PolicyRoundRobin = cluster.RoundRobin
	// PolicyP2C sends to the less loaded of two random backends.
	PolicyP2C = cluster.P2C
	// PolicyJSQ sends to the least loaded backend overall.
	PolicyJSQ = cluster.JSQ
)

// ErrNoBackends reports a cluster with no eligible backends.
var ErrNoBackends = cluster.ErrNoBackends

// ErrClusterClosed reports calls issued against a closed cluster;
// requests still in flight at Close settle with it too.
var ErrClusterClosed = cluster.ErrClusterClosed

// NewCluster creates an empty cluster; wire members in with Add. Every
// zygos client type (Client, TCPClient, ManagedClient) is a valid
// backend, and each feeds the balancer its server's live scheduling
// depth through OnDepth.
func NewCluster(cfg ClusterConfig) *ClusterCaller { return cluster.New(cfg) }

// KVKeyFunc is the ClusterConfig.KeyFunc for the kv application's
// routed methods: GET reads, SET and DELETE write.
func KVKeyFunc(method uint16, payload []byte) (key []byte, write, ok bool) {
	return kvwire.KeyFunc(method, payload)
}

var (
	_ Caller       = (*ClusterCaller)(nil)
	_ BudgetCaller = (*ClusterCaller)(nil)
)

// ProxyHandler adapts a cluster into a server Handler, making the
// server a protocol-level proxy: each incoming request detaches from
// its worker, forwards through the cluster, and completes when the
// winning backend reply lands. Status errors from backends — and from
// the cluster's own front-tier admission gate — propagate with their
// original code, so a StatusShed refused at the proxy looks to the
// client exactly like one refused at a backend; transport-level
// failures surface as StatusInternal. One-way requests forward as
// one-way and complete immediately (nothing is transmitted for them).
//
// Requests carrying a wire deadline budget are forwarded with the
// budget *remaining* at the proxy — the hop's queueing and parse time
// is deducted, not re-granted — and a request whose budget is already
// gone is answered StatusDeadlineExceeded without touching a backend.
func ProxyHandler(cl *ClusterCaller) Handler {
	return func(w ResponseWriter, req *Request) {
		call := Call{Method: req.Method, Legacy: req.Method == 0, OneWay: req.OneWay, Payload: req.Payload}
		if req.OneWay {
			_ = cl.Do(call)
			_ = w.Reply(nil)
			return
		}
		if rem, ok := req.RemainingBudget(); ok {
			if rem <= 0 {
				_ = w.Error(StatusDeadlineExceeded, "proxy: deadline budget exhausted")
				return
			}
			call.Budget = rem
		}
		co := w.Detach()
		call.Done = func(resp []byte, err error) {
			var se *StatusError
			switch {
			case err == nil:
				_ = co.Reply(resp)
			case errors.As(err, &se):
				_ = co.Error(se.Code, se.Msg)
			default:
				_ = co.Error(StatusInternal, "proxy: "+err.Error())
			}
		}
		if err := cl.Do(call); err != nil {
			// A refused call never reaches Done; complete it the same way.
			call.Done(nil, err)
		}
	}
}
