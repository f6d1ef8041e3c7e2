package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
)

func sumProcessed(nodes []*core.StorageNode) uint64 {
	var total uint64
	for _, n := range nodes {
		total += n.Stats().EventsProcessed
	}
	return total
}

// TestClusterBatchingDeliversAll routes per-event and pre-batched ingress
// through the cluster and checks the owner bucketing loses or duplicates
// nothing across nodes.
func TestClusterBatchingDeliversAll(t *testing.T) {
	c, nodes := newLocal(t, 3)
	const n = 500
	for i := 0; i < n; i++ {
		ev := event.Event{Caller: uint64(i%97) + 1, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
		if err := c.ProcessEventAsync(ev); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]event.Event, 100)
	for i := range batch {
		batch[i] = event.Event{Caller: uint64(i%97) + 1, Timestamp: int64(1000 + i), Duration: 5, Cost: 1}
	}
	if err := c.ProcessEventBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	if got := sumProcessed(nodes); got != n+100 {
		t.Fatalf("nodes processed %d events, want %d", got, n+100)
	}
}

// haltingStorage delivers events until its budget runs out, then fails —
// the shape of a node dying mid-batch. It exposes the delivered prefix so
// tests can check exactly-once, in-order redelivery.
type haltingStorage struct {
	flakyStorage
	budget int // remaining deliveries before failures start; -1 = unlimited
}

func (h *haltingStorage) ProcessEventAsync(ev event.Event) error {
	if h.budget == 0 {
		return errInjected
	}
	if h.budget > 0 {
		h.budget--
	}
	return h.flakyStorage.ProcessEventAsync(ev)
}

// TestClusterBatchSpillAndReplay kills delivery mid-batch: the batch's
// delivered prefix must stay delivered, the undelivered suffix must spill
// and replay after recovery, and the node must see the original stream
// order with no duplicates.
func TestClusterBatchSpillAndReplay(t *testing.T) {
	// Budget 2: a 4-event batch delivers 2, then fails. haltingStorage has no
	// ProcessEventBatch, so delivery takes core.ProcessBatch's per-event
	// fallback — the path that reports partial progress.
	// RetryInterval is huge so the background drainer never races the
	// assertions below; replay goes through FlushEvents' synchronous path.
	hs := &haltingStorage{budget: 2}
	c, err := NewWithHealth([]core.Storage{hs}, HealthConfig{
		FailureThreshold: 3, ProbeInterval: 5 * time.Millisecond,
		RetryQueue: 100, RetryInterval: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	evs := make([]event.Event, 4)
	for i := range evs {
		evs[i] = event.Event{Caller: uint64(i) + 1, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
	}
	// ProcessEventBatch takes ownership of its slice; keep evs as the
	// reference stream.
	if err := c.ProcessEventBatch(append([]event.Event(nil), evs...)); err != nil {
		t.Fatalf("spilled batch surfaced %v", err)
	}
	if got := hs.deliveredCount(); got != 2 {
		t.Fatalf("delivered %d events before the fault, want 2", got)
	}
	h := c.Health(0)
	if h.QueuedEvents != 2 {
		t.Fatalf("spill queue holds %d events, want 2: %+v", h.QueuedEvents, h)
	}

	// Recover the node; FlushEvents replays the spilled suffix synchronously.
	hs.budget = -1
	if err := c.FlushEvents(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	hs.mu.Lock()
	got := append([]event.Event(nil), hs.delivered...)
	hs.mu.Unlock()
	if len(got) != len(evs) {
		t.Fatalf("delivered %d events, want %d", len(got), len(evs))
	}
	for i := range got {
		if got[i] != evs[i] {
			t.Fatalf("delivery %d: got %+v, want %+v (order or duplication broken)", i, got[i], evs[i])
		}
	}
	h = c.Health(0)
	if h.QueuedEvents != 0 || h.Replayed != 2 || h.Dropped != 0 {
		t.Fatalf("health after replay = %+v, want queued 0, replayed 2, dropped 0", h)
	}
}

// TestClusterBatchBreakerOpenSpills checks a batch against an open breaker
// does not even touch the node: the whole batch spills and replays once the
// node recovers.
func TestClusterBatchBreakerOpenSpills(t *testing.T) {
	fs := &flakyStorage{}
	c, err := NewWithHealth([]core.Storage{fs}, HealthConfig{
		FailureThreshold: 2, ProbeInterval: time.Minute,
		RetryQueue: 100, RetryInterval: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	fs.down.Store(true)

	// Two failed deliveries open the breaker; the third batch spills
	// without a delivery attempt, so delivered stays 0 for the whole outage.
	for b := 0; b < 3; b++ {
		evs := make([]event.Event, 2)
		for i := range evs {
			n := 2*b + i
			evs[i] = event.Event{Caller: uint64(n) + 1, Timestamp: int64(n + 1), Duration: 5, Cost: 1}
		}
		if err := c.ProcessEventBatch(evs); err != nil {
			t.Fatal(err)
		}
	}
	h := c.Health(0)
	if h.State != BreakerOpen || h.QueuedEvents != 6 || fs.deliveredCount() != 0 {
		t.Fatalf("health after failed batches = %+v (delivered %d), want open breaker, 6 queued, 0 delivered",
			h, fs.deliveredCount())
	}

	fs.down.Store(false)
	if err := c.FlushEvents(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if got := fs.deliveredCount(); got != 6 {
		t.Fatalf("replayed %d events, want 6 (health %+v)", got, c.Health(0))
	}
	h = c.Health(0)
	if h.QueuedEvents != 0 || h.Replayed != 6 {
		t.Fatalf("health after replay = %+v, want queued 0, replayed 6", h)
	}
}

// TestBatchSpillOverflowDoesNotDropEvents is the regression test for silent
// loss on the batch path: when a spill overflows the bounded retry queue
// under the default reject policy, the leftover suffix must not be counted
// as dropped and discarded. The caller gets a typed PartialBatchError with
// the accepted prefix, resubmits the rest after recovery, and every event
// reaches the node exactly once, in order.
func TestBatchSpillOverflowDoesNotDropEvents(t *testing.T) {
	fs := &flakyStorage{}
	c, err := NewWithHealth([]core.Storage{fs}, HealthConfig{
		FailureThreshold: 1, ProbeInterval: 2 * time.Millisecond,
		RetryQueue: 2, RetryInterval: time.Hour,
		SpillRetryAfter: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fs.down.Store(true)
	const events = 10
	evs := make([]event.Event, events)
	for i := range evs {
		evs[i] = event.Event{Caller: uint64(i + 1), Timestamp: int64(i + 1)}
	}
	err = c.ProcessEventBatch(append([]event.Event(nil), evs...))
	var pe *core.PartialBatchError
	if !errors.As(err, &pe) || !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("overflowing spill = %v, want a PartialBatchError wrapping ErrOverloaded", err)
	}
	h := c.Health(0)
	if h.Dropped != 0 {
		t.Fatalf("reject policy silently dropped %d events: %+v", h.Dropped, h)
	}
	if pe.Applied != 2 || h.QueuedEvents != 2 || fs.deliveredCount() != 0 {
		t.Fatalf("accepted %d, queued %d, delivered %d; want 2 accepted into the queue, 0 delivered",
			pe.Applied, h.QueuedEvents, fs.deliveredCount())
	}

	// Recovery: the flush replays the queued prefix, then the caller
	// resubmits the suffix it still owns.
	fs.down.Store(false)
	if err := c.FlushEvents(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if err := c.ProcessEventBatch(append([]event.Event(nil), evs[pe.Applied:]...)); err != nil {
		t.Fatalf("resubmitting the suffix: %v", err)
	}
	fs.mu.Lock()
	got := append([]event.Event(nil), fs.delivered...)
	fs.mu.Unlock()
	if len(got) != events {
		t.Fatalf("delivered %d/%d events after recovery", len(got), events)
	}
	for i := range got {
		if got[i] != evs[i] {
			t.Fatalf("delivery %d: got %+v, want %+v (order or duplication broken)", i, got[i], evs[i])
		}
	}
}

// gateStorage holds every batch delivery until release is closed, so a
// drainer batch can be caught in flight.
type gateStorage struct {
	flakyStorage
	entered chan struct{}
	release chan struct{}
}

func (g *gateStorage) ProcessEventBatch(evs []event.Event) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.release
	g.mu.Lock()
	g.delivered = append(g.delivered, evs...)
	g.mu.Unlock()
	return nil
}

// TestFlushWaitsForInFlightDrainerBatch checks FlushEvents is a barrier
// over the background drainer: when the drainer has already popped a spill
// batch and is still delivering it, the flush must not report the stream
// applied until that batch has landed.
func TestFlushWaitsForInFlightDrainerBatch(t *testing.T) {
	gs := &gateStorage{entered: make(chan struct{}, 1), release: make(chan struct{})}
	c, err := NewWithHealth([]core.Storage{gs}, HealthConfig{
		FailureThreshold: 1, ProbeInterval: time.Millisecond,
		RetryQueue: 100, RetryInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	gs.down.Store(true)
	const n = 10
	for i := 0; i < n; i++ {
		if err := c.ProcessEventAsync(event.Event{Caller: uint64(i + 1), Timestamp: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	gs.down.Store(false)
	<-gs.entered // the drainer popped the spilled events and is delivering them

	atFlush := make(chan int, 1)
	go func() {
		if err := c.FlushEvents(); err != nil {
			t.Error(err)
		}
		atFlush <- gs.deliveredCount()
	}()
	// Give a flush that does not wait for the drainer time to return early;
	// a correct flush cannot return before the release either way.
	time.Sleep(20 * time.Millisecond)
	close(gs.release)
	if got := <-atFlush; got != n {
		t.Fatalf("FlushEvents returned with %d/%d spilled events delivered", got, n)
	}
}
