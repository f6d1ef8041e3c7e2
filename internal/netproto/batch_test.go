package netproto

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/schema"
)

// startPairCfg boots a node + server + client with explicit configs, for
// exercising the batched ingest paths.
func startPairCfg(t *testing.T, scfg ServerConfig, ccfg ClientConfig) (*Client, *core.StorageNode, *schema.Schema) {
	t.Helper()
	sch := netSchema(t)
	node, err := core.NewNode(core.Config{
		Schema: sch, Partitions: 2, BucketSize: 32,
		IdleMergePause: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeWithConfig("127.0.0.1:0", node, sch, scfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialConfig(srv.Addr(), sch, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		node.Stop()
	})
	return cli, node, sch
}

func waitProcessed(t *testing.T, node *core.StorageNode, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := node.Stats().EventsProcessed; got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server processed %d events, want %d", node.Stats().EventsProcessed, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEventBatchCodecRoundtrip(t *testing.T) {
	evs := make([]event.Event, 17)
	for i := range evs {
		evs[i] = event.Event{
			Caller: uint64(i) + 1, Callee: uint64(i) + 2, Timestamp: int64(i * 7),
			Duration: int64(i), Cost: float64(i) / 4, LongDistance: i%3 == 0,
		}
	}
	got, err := decodeEventBatch(encodeEventBatch(evs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(got), len(evs))
	}
	for i := range got {
		if got[i] != evs[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], evs[i])
		}
	}

	// Malformed bodies must be rejected, not mis-sliced.
	if _, err := decodeEventBatch(nil); err == nil {
		t.Fatal("decoded empty body")
	}
	if _, err := decodeEventBatch([]byte{0, 0}); err == nil {
		t.Fatal("decoded short body")
	}
	body := encodeEventBatch(evs[:2])
	if _, err := decodeEventBatch(body[:len(body)-1]); err == nil {
		t.Fatal("decoded truncated batch")
	}
	body[0] = 3 // count says 3, body carries 2
	if _, err := decodeEventBatch(body); err == nil {
		t.Fatal("decoded count/length mismatch")
	}
	zero := encodeEventBatch(nil)
	if _, err := decodeEventBatch(zero); err == nil {
		t.Fatal("decoded zero-count batch")
	}
}

// TestClientCoalescingOverTCP drives the opt-in client buffer end to end:
// events coalesce into msgEventBatch frames, FlushEvents force-drains, and
// the server applies every event exactly once.
func TestClientCoalescingOverTCP(t *testing.T) {
	cli, node, _ := startPairCfg(t, ServerConfig{},
		ClientConfig{EventBatch: 16, EventLinger: -1})
	for i := 0; i < 200; i++ {
		ev := event.Event{Caller: uint64(i%20) + 1, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
		if err := cli.ProcessEventAsync(ev); err != nil {
			t.Fatal(err)
		}
	}
	// A pre-batched caller path ships one frame directly (draining the
	// coalescing buffer first to keep order).
	batch := make([]event.Event, 50)
	for i := range batch {
		batch[i] = event.Event{Caller: uint64(i%20) + 1, Timestamp: int64(1000 + i), Duration: 5, Cost: 1}
	}
	if err := cli.ProcessEventBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := cli.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	if got := node.Stats().EventsProcessed; got != 250 {
		t.Fatalf("server processed %d events, want 250", got)
	}
}

// TestClientLingerFlush checks a size-incomplete batch does not wait for
// more traffic: the linger timer ships it.
func TestClientLingerFlush(t *testing.T) {
	cli, node, _ := startPairCfg(t, ServerConfig{},
		ClientConfig{EventBatch: 64, EventLinger: 5 * time.Millisecond})
	for i := 0; i < 10; i++ {
		ev := event.Event{Caller: uint64(i) + 1, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
		if err := cli.ProcessEventAsync(ev); err != nil {
			t.Fatal(err)
		}
	}
	// No flush: only the linger timer can deliver these.
	waitProcessed(t, node, 10)
}

// TestSyncCallFlushesBuffered checks read-your-writes ordering: a
// synchronous call drains the coalescing buffer first, so the server sees
// the buffered events before the call — without FlushEvents and without a
// linger timer.
func TestSyncCallFlushesBuffered(t *testing.T) {
	cli, node, _ := startPairCfg(t, ServerConfig{},
		ClientConfig{EventBatch: 64, EventLinger: -1})
	for i := 0; i < 5; i++ {
		ev := event.Event{Caller: 7, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
		if err := cli.ProcessEventAsync(ev); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := cli.Get(7); err != nil {
		t.Fatal(err)
	}
	// The Get was the only possible flush trigger (buffer not full, timer
	// disabled); the events must now be on the server.
	waitProcessed(t, node, 5)
}

// TestLingerRetriesAfterFailedFlush checks a dead timer cannot strand a
// quiet stream: when a linger flush fails (server unreachable) the timer
// re-arms, so the buffered events are delivered after the server heals with
// no further sends, flushes, or syncs from the application.
func TestLingerRetriesAfterFailedFlush(t *testing.T) {
	plan := NewFaultPlan()
	cli, node, _ := startPairCfg(t, ServerConfig{}, ClientConfig{
		EventBatch: 64, EventLinger: 2 * time.Millisecond,
		Dialer:      plan.Dialer(),
		BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond,
	})

	// Take the server away: the live conn is reset and redials are refused.
	plan.SetFailDial(true)
	plan.ResetAll()
	for i := 0; i < 3; i++ {
		ev := event.Event{Caller: uint64(i) + 1, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
		if err := cli.ProcessEventAsync(ev); err != nil {
			t.Fatalf("event %d: buffered send surfaced %v", i, err)
		}
	}
	// Several linger deadlines pass against the dead server; every flush
	// attempt fails and must leave the retry timer armed.
	time.Sleep(20 * time.Millisecond)
	if got := node.Stats().EventsProcessed; got != 0 {
		t.Fatalf("server processed %d events while unreachable", got)
	}

	// Heal and touch nothing: only a re-armed linger timer can deliver.
	plan.Heal()
	waitProcessed(t, node, 3)
}

// TestCoalescingZeroLossUnderFaults checks the batched client path keeps
// the per-event path's delivery contract under connection loss: a failed
// flush keeps the batch buffered, the failure surfaces on the next send
// (whose event stays owned by the caller, exactly like a failed per-event
// send), and after healing every accepted event is delivered once.
func TestCoalescingZeroLossUnderFaults(t *testing.T) {
	plan := NewFaultPlan()
	cli, node, _ := startPairCfg(t, ServerConfig{}, ClientConfig{
		EventBatch: 4, EventLinger: -1,
		Dialer:      plan.Dialer(),
		BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond,
	})
	mk := func(i int) event.Event {
		return event.Event{Caller: uint64(i) + 1, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
	}

	// Healthy: one full batch flushes by size.
	for i := 0; i < 4; i++ {
		if err := cli.ProcessEventAsync(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.FlushEvents(); err != nil {
		t.Fatal(err)
	}

	// Kill the server's reachability: live conn reset, redials refused.
	plan.SetFailDial(true)
	plan.ResetAll()

	// Three events buffer cleanly; the fourth triggers a size flush that
	// fails. The failure is NOT surfaced here — the batch (all 4 events) is
	// retained for redelivery.
	for i := 4; i < 8; i++ {
		if err := cli.ProcessEventAsync(mk(i)); err != nil {
			t.Fatalf("event %d: buffered send surfaced %v", i, err)
		}
	}
	// The next send surfaces the sticky failure and rejects its event, so
	// the caller (the cluster spill queue, in production) still owns it.
	rejected := mk(8)
	if err := cli.ProcessEventAsync(rejected); err == nil {
		t.Fatal("send after failed flush reported success")
	}
	// An explicit flush while the server is down also fails — the batch
	// stays buffered.
	if err := cli.FlushEvents(); err == nil {
		t.Fatal("FlushEvents succeeded against a dead server")
	}

	plan.Heal()
	if err := cli.FlushEvents(); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	// Redeliver the one rejected event, exactly like the spill queue would.
	if err := cli.ProcessEventAsync(rejected); err != nil {
		t.Fatal(err)
	}
	if err := cli.FlushEvents(); err != nil {
		t.Fatal(err)
	}

	// Zero loss, zero duplication: 4 + 4 buffered-through-outage + 1 resent.
	if got := node.Stats().EventsProcessed; got != 9 {
		t.Fatalf("server processed %d events, want 9", got)
	}
	if plan.Injected() == 0 {
		t.Fatal("fault plan injected nothing; test exercised the healthy path only")
	}
}
