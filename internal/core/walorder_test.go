package core

import (
	"sync"
	"testing"

	"repro/internal/archive"
	"repro/internal/event"
)

// TestConcurrentProducersApplyInWALOrder checks the recovery invariant under
// concurrent producers: whatever order racing ProcessEventAsync and
// ProcessEventBatch callers land in, the ESP workers must apply events in
// their archive (LSN) order, so the matrix equals a replay of the archive.
// Producers share a few entities and their timestamps cross day windows,
// so an apply order that differs from the log shows up in the records.
func TestConcurrentProducersApplyInWALOrder(t *testing.T) {
	sch := testSchema(t)
	arch, err := archive.Open(t.TempDir(), archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { arch.Close() })
	// A tiny ESP queue keeps producers parked on full channels between
	// their archive append and their enqueue, the window a reorder needs.
	n := newTestNode(t, Config{Schema: sch, Partitions: 2, ESPThreads: 2, ESPQueueLen: 1, Archive: arch})

	const producers, perProducer, nEntities = 8, 2000, 3
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			mk := func(i int) event.Event {
				return event.Event{
					Caller:    uint64(i%nEntities) + 1,
					Timestamp: 100*dayMs + int64(p*perProducer+i)*(dayMs/500),
					Duration:  int64(i%600) + 1,
					Cost:      float64(i%100) / 10,
				}
			}
			for i := 0; i < perProducer; {
				if p%2 == 0 {
					if err := n.ProcessEventAsync(mk(i)); err != nil {
						t.Error(err)
						return
					}
					i++
					continue
				}
				batch := make([]event.Event, 0, 8)
				for ; i < perProducer && len(batch) < cap(batch); i++ {
					batch = append(batch, mk(i))
				}
				if err := n.ProcessEventBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := n.FlushEvents(); err != nil {
		t.Fatal(err)
	}

	oracle := newTestNode(t, Config{Schema: sch, Partitions: 2, ESPThreads: 2})
	if err := arch.Replay(0, func(_ uint64, ev event.Event) error {
		return oracle.ProcessEventAsync(ev)
	}); err != nil {
		t.Fatal(err)
	}
	if err := oracle.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= nEntities; e++ {
		want, _, _, err := oracle.Get(e)
		if err != nil {
			t.Fatal(err)
		}
		got, _, _, err := n.Get(e)
		if err != nil {
			t.Fatal(err)
		}
		for s := range want {
			if s != sch.VersionSlot && got[s] != want[s] {
				t.Fatalf("entity %d slot %d: node %d, archive replay %d", e, s, got[s], want[s])
			}
		}
	}
}
