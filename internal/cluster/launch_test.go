package cluster

import (
	"errors"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// Every way into launch — primary, failover after a refusal or a
// transport failure, hedge — must deliver exactly one outcome: through
// Do's error when no attempt got out (Done never runs), through Done
// otherwise. Every path must also leave the Close registry empty.
func TestLaunchPaths(t *testing.T) {
	transportErr := errors.New("conn reset")
	refusal := errors.New("dial backoff")
	refusal2 := errors.New("closed manager")

	cases := []struct {
		name  string
		hedge bool
		// setup returns the backends in pick order (JSQ breaks score ties
		// to the first) and what to deliver once Do has returned.
		setup func() ([]*fakeCaller, func())
		// doErr non-nil: Do returns it and Done never runs; otherwise
		// Done runs once with doneErr.
		doErr, doneErr    error
		hedges, failovers uint64
	}{
		{
			name: "refused primary rescued by a failover",
			setup: func() ([]*fakeCaller, func()) {
				return []*fakeCaller{{err: refusal}, {autoReply: []byte("ok")}}, nil
			},
			failovers: 1,
		},
		{
			name: "refused primary whose rescue is refused",
			setup: func() ([]*fakeCaller, func()) {
				return []*fakeCaller{{err: refusal}, {err: refusal2}}, nil
			},
			doErr:     refusal2,
			failovers: 1,
		},
		{
			name:  "no eligible backend",
			setup: func() ([]*fakeCaller, func()) { return nil, nil },
			doErr: ErrNoBackends,
		},
		{
			name:  "hedge refused while the primary is out",
			hedge: true,
			setup: func() ([]*fakeCaller, func()) {
				sent := make(chan struct{})
				holder := &fakeCaller{}
				refuser := &fakeCaller{err: refusal, hook: func() { close(sent) }}
				// A nil verdict is the primary's (empty) successful reply.
				return []*fakeCaller{holder, refuser}, func() { <-sent; holder.fail(nil) }
			},
			hedges: 1,
		},
		{
			name: "transport failure whose failover is refused",
			setup: func() ([]*fakeCaller, func()) {
				holder := &fakeCaller{}
				return []*fakeCaller{holder, {err: refusal}}, func() { holder.fail(transportErr) }
			},
			doneErr:   refusal,
			failovers: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := New(Config{
				Policy: JSQ,
				Hedge:  HedgeConfig{Enabled: tc.hedge, MaxDelay: time.Millisecond},
			})
			defer cl.Close()
			bs, deliver := tc.setup()
			for i, b := range bs {
				cl.Add(strconv.Itoa(i), b)
			}

			var fires atomic.Int32
			done := make(chan error, 2)
			err := cl.SendMethodAsync(1, []byte("x"), func(_ []byte, err error) {
				fires.Add(1)
				done <- err
			})
			if !errors.Is(err, tc.doErr) {
				t.Fatalf("Do returned %v, want %v", err, tc.doErr)
			}
			if deliver != nil {
				deliver()
			}
			wantFires := int32(0)
			if tc.doErr == nil {
				wantFires = 1
				select {
				case err := <-done:
					if !errors.Is(err, tc.doneErr) {
						t.Fatalf("Done got %v, want %v", err, tc.doneErr)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Done never ran")
				}
			}
			time.Sleep(10 * time.Millisecond)
			if n := fires.Load(); n != wantFires {
				t.Fatalf("Done ran %d times, want %d", n, wantFires)
			}
			if s := cl.Stats(); s.Hedges != tc.hedges || s.Failovers != tc.failovers {
				t.Fatalf("hedges=%d failovers=%d, want %d/%d", s.Hedges, s.Failovers, tc.hedges, tc.failovers)
			}
			cl.opMu.Lock()
			left := len(cl.ops)
			cl.opMu.Unlock()
			if left != 0 {
				t.Fatalf("%d ops left in the Close registry", left)
			}
		})
	}
}

// A one-way refused with no backend left to rescue it reports the
// refusal, and counts no failover: nothing was re-sent.
func TestOneWayRefusalReported(t *testing.T) {
	refusal := errors.New("dial backoff")
	cl := New(Config{})
	cl.Add("only", &fakeCaller{err: refusal})
	defer cl.Close()

	if err := cl.SendMethodOneWay(1, []byte("x")); !errors.Is(err, refusal) {
		t.Fatalf("SendMethodOneWay returned %v, want the refusal", err)
	}
	if s := cl.Stats(); s.Failovers != 0 {
		t.Fatalf("Failovers = %d, want 0", s.Failovers)
	}
}

// A one-way keyed write reports its primary's send result, as a request
// write does; a refused secondary is counted, not returned.
func TestOneWayReplicaRefusalCounted(t *testing.T) {
	cl := New(Config{
		Policy:   JSQ,
		Replicas: 2,
		KeyFunc: func(method uint16, payload []byte) ([]byte, bool, bool) {
			return payload, true, true
		},
	})
	cl.Add("a", &fakeCaller{})
	cl.Add("b", &fakeCaller{})
	defer cl.Close()
	owners := cl.view.Load().(*membership).ring.owners([]byte("key"), 2, cl.Backends())
	owners[1].c.(*fakeCaller).err = errors.New("secondary down")

	if err := cl.SendMethodOneWay(5, []byte("key")); err != nil {
		t.Fatalf("one-way write with a healthy primary returned %v", err)
	}
	if got := cl.Stats().ReplicaWriteFailures; got != 1 {
		t.Fatalf("ReplicaWriteFailures = %d, want 1", got)
	}
}

// record runs on the reply path of every cluster call, so a full cycle
// of records — the P99 recompute included — must not allocate.
func TestTrackerRecordNoAlloc(t *testing.T) {
	cfg := HedgeConfig{MinDelay: time.Microsecond, MaxDelay: time.Second}
	tr := &tracker{}
	for i := 0; i < hedgeWindow; i++ {
		tr.record(time.Millisecond, cfg)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < recomputeEvery; i++ {
			tr.record(time.Duration(i+1)*time.Microsecond, cfg)
		}
	})
	if allocs != 0 {
		t.Fatalf("a record cycle allocates %.1f times, want 0", allocs)
	}
}
