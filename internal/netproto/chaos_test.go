package netproto

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/rta"
	"repro/internal/schema"
)

// chaosRig is a 3-node TCP cluster whose first node's links run through a
// FaultPlan, plus strict and degraded RTA coordinators over the same
// handles.
type chaosRig struct {
	sch      *schema.Schema
	nodes    []*core.StorageNode
	servers  []*Server
	clients  []*Client
	cl       *cluster.Cluster
	strict   *rta.Coordinator
	degraded *rta.Coordinator
	plan     *FaultPlan
	sent     int
}

func newChaosRig(t *testing.T, eventBatch int) *chaosRig {
	t.Helper()
	r := &chaosRig{sch: netSchema(t), plan: NewFaultPlan()}
	var handles []core.Storage
	for i := 0; i < 3; i++ {
		node, err := core.NewNode(core.Config{
			Schema: r.sch, Partitions: 2, BucketSize: 32,
			IdleMergePause: 200 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, node)
		srv, err := Serve("127.0.0.1:0", node, r.sch)
		if err != nil {
			t.Fatal(err)
		}
		r.servers = append(r.servers, srv)
		cfg := ClientConfig{
			CallTimeout: 2 * time.Second,
			MaxRetries:  8,
			BackoffBase: 2 * time.Millisecond,
			BackoffMax:  20 * time.Millisecond,
			EventBatch:  eventBatch,
		}
		if i == 0 {
			cfg.Dialer = r.plan.Dialer()
		}
		cli, err := DialConfig(srv.Addr(), r.sch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.clients = append(r.clients, cli)
		handles = append(handles, cli)
	}
	cl, err := cluster.NewWithHealth(handles, cluster.HealthConfig{
		FailureThreshold: 3,
		ProbeInterval:    20 * time.Millisecond,
		RetryQueue:       8192,
		RetryInterval:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.cl = cl
	if r.strict, err = rta.NewCoordinator(handles); err != nil {
		t.Fatal(err)
	}
	if r.degraded, err = rta.NewCoordinatorConfig(handles, rta.Config{Policy: rta.PolicyDegraded}); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *chaosRig) close() {
	r.cl.Close()
	for _, c := range r.clients {
		c.Close()
	}
	for _, s := range r.servers {
		s.Close()
	}
	for _, n := range r.nodes {
		n.Stop()
	}
}

// ingest pushes n events through the cluster router; the ESP pipeline must
// accept every one of them regardless of injected faults (spill absorbs).
func (r *chaosRig) ingest(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ev := event.Event{
			Caller:    uint64(r.sent%97) + 1,
			Timestamp: 100*24*3600*1000 + int64(r.sent),
			Duration:  5, Cost: 1,
		}
		if err := r.cl.ProcessEventAsync(ev); err != nil {
			t.Fatalf("ESP pipeline rejected event %d under faults: %v", r.sent, err)
		}
		r.sent++
	}
}

func (r *chaosRig) sumQuery(id uint64) *query.Query {
	calls := r.sch.MustAttrIndex("calls_today_count")
	return &query.Query{ID: id, Aggs: []query.AggExpr{{Op: query.OpSum, Attr: calls}}, GroupBy: -1}
}

// TestChaosFlakyNodeFullWorkload is the acceptance drill: with resets,
// delays and dial refusal injected on 1 of 3 TCP storage nodes, the ESP
// pipeline keeps ingesting, idempotent RPCs succeed via retry/reconnect,
// degraded-policy RTA queries return partials marked Incomplete while
// strict-policy queries fail with the typed node-failure error — and after
// healing, the cluster converges with zero event loss and zero goroutine
// leaks. It runs over a per-event client and over the coalescing client
// shape that aimload uses, so the zero-loss check covers cluster spill →
// client batch buffer → server.
func TestChaosFlakyNodeFullWorkload(t *testing.T) {
	for _, tc := range []struct {
		name       string
		eventBatch int
	}{{"per-event", 0}, {"batch16", 16}} {
		t.Run(tc.name, func(t *testing.T) { chaosFlakyNodeFullWorkload(t, tc.eventBatch) })
	}
}

func chaosFlakyNodeFullWorkload(t *testing.T, eventBatch int) {
	before := runtime.NumGoroutine()

	r := newChaosRig(t, eventBatch)
	func() {
		defer r.close()

		// Phase 0 — healthy warmup: events flow, queries are complete.
		r.ingest(t, 300)
		if err := r.cl.FlushEvents(); err != nil {
			t.Fatalf("healthy flush: %v", err)
		}
		waitForSum(t, r, float64(r.sent), "healthy warmup")

		// Phase 1 — flaky: node 0's connections reset on every 3rd write
		// and reads are slowed. Ingestion must not error (failures spill),
		// and idempotent RPCs must succeed via reconnect + retry.
		r.plan.SetReadDelay(time.Millisecond)
		r.plan.SetResetEvery(3)
		r.plan.ResetAll()
		r.ingest(t, 500)
		for i := 0; i < 15; i++ {
			if _, _, _, err := r.clients[0].Get(uint64(i + 1)); err != nil {
				t.Fatalf("idempotent Get %d through flaky link: %v", i, err)
			}
		}
		if r.clients[0].Reconnects() == 0 {
			t.Fatal("flaky phase never forced a reconnect")
		}
		if r.plan.Injected() == 0 {
			t.Fatal("fault plan injected nothing")
		}

		// Phase 2 — dead: node 0 refuses dials entirely. The ESP pipeline
		// keeps ingesting (spill queue), degraded queries return partials
		// marked Incomplete, strict queries fail with the typed error.
		r.plan.Heal()
		r.plan.SetFailDial(true)
		r.plan.ResetAll()
		r.ingest(t, 300)

		res, err := r.degraded.Execute(r.sumQuery(1_000_001))
		if err != nil {
			t.Fatalf("degraded query with dead node: %v", err)
		}
		if !res.Incomplete || res.CoveredNodes != 2 || res.TotalNodes != 3 {
			t.Fatalf("degraded coverage = %d/%d incomplete=%v, want 2/3 incomplete",
				res.CoveredNodes, res.TotalNodes, res.Incomplete)
		}
		_, err = r.strict.Execute(r.sumQuery(1_000_002))
		if !errors.Is(err, rta.ErrNodeFailure) {
			t.Fatalf("strict query with dead node = %v, want ErrNodeFailure", err)
		}
		var nfe *rta.NodeFailureError
		if !errors.As(err, &nfe) || nfe.Failed != 1 || nfe.Total != 3 {
			t.Fatalf("typed node-failure error = %+v", err)
		}
		if h := r.cl.Health(0); h.State == cluster.BreakerClosed || h.Spilled == 0 {
			t.Fatalf("node 0 health after dead phase: %+v, want open breaker with spilled events", h)
		}

		// Phase 3 — heal: the spill queue replays, flush succeeds, and the
		// cluster converges to every event sent — zero loss.
		r.plan.Heal()
		r.ingest(t, 200)
		flushDeadline := time.Now().Add(20 * time.Second)
		for {
			err := r.cl.FlushEvents()
			if err == nil {
				break
			}
			if time.Now().After(flushDeadline) {
				t.Fatalf("flush never recovered after heal: %v (health %+v)", err, r.cl.Health(0))
			}
			time.Sleep(10 * time.Millisecond)
		}
		var processed uint64
		for _, n := range r.nodes {
			processed += n.Stats().EventsProcessed
		}
		if processed != uint64(r.sent) {
			t.Fatalf("event loss under chaos: processed %d, sent %d (node0 health %+v)",
				processed, r.sent, r.cl.Health(0))
		}
		waitForSum(t, r, float64(r.sent), "post-heal convergence")
		if h := r.cl.Health(0); h.QueuedEvents != 0 {
			t.Fatalf("spill queue not drained after heal: %+v", h)
		}
	}()

	// Zero goroutine leaks: everything the drill started must wind down.
	deadline := time.Now().Add(10 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before chaos, %d after\n%s", before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitForSum polls the degraded coordinator until the merged sum reaches
// want with full coverage (merge cycles make events visible eventually).
func waitForSum(t *testing.T, r *chaosRig, want float64, phase string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var qid uint64 = 5_000_000
	for {
		qid++
		res, err := r.degraded.Execute(r.sumQuery(qid))
		if err == nil && !res.Incomplete && len(res.Rows) > 0 && res.Rows[0].Values[0] == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: cluster never converged to %v (last: res=%+v err=%v)", phase, want, res, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
