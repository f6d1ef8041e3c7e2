package main

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
)

// samples is a goroutine-safe sample list.
type samples struct {
	mu sync.Mutex
	xs []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

// tracer collects the spans of a traced window: the benchmark's calls into
// esp.Router and rta.Coordinator, and the storage handle calls beneath them.
type tracer struct {
	ingest   samples // esp.Router.Ingest, us
	enqueue  samples // Storage.ProcessEventAsync (coalescer + backpressure), us
	flush    samples // Storage.FlushEvents, ms
	eventRTT samples // Storage.ProcessEvent, ms
	queryRTT samples // Storage.SubmitQueryAsync to its response, client queries only, ms

	// Per-probe and per-query decompositions for the sums check.
	probeLateMs  samples // probe sent after its due time
	probeRouteMs samples // Router.IngestSync
	probeSelfMs  samples // Router.IngestSync minus the node RTT
	gatherSelfUs samples // Coordinator.Execute minus the slowest node RTT
	nestErrors   int     // child spans longer than their parent

	mu       sync.Mutex
	eventMax map[uint64]time.Duration // ProcessEvent RTT per sync caller in flight
	// queryMax holds the slowest node RTT of each client query in flight.
	// Freshness polls are never registered, so their round trips stay out
	// of queryRTT.
	queryMax map[*query.Query]time.Duration
}

func newTracer() *tracer {
	return &tracer{
		eventMax: make(map[uint64]time.Duration),
		queryMax: make(map[*query.Query]time.Duration),
	}
}

// probeDone records one sync probe of caller: late is how long after its
// due time it was sent, route the Router.IngestSync time.
func (t *tracer) probeDone(caller uint64, lateMs, routeMs float64) {
	t.mu.Lock()
	rtt := ms(t.eventMax[caller])
	delete(t.eventMax, caller)
	if rtt > routeMs {
		t.nestErrors++
	}
	t.mu.Unlock()
	t.probeLateMs.add(lateMs)
	t.probeRouteMs.add(routeMs)
	t.probeSelfMs.add(routeMs - rtt)
}

// queryStart registers client query q before its Coordinator.Execute.
func (t *tracer) queryStart(q *query.Query) {
	t.mu.Lock()
	t.queryMax[q] = 0
	t.mu.Unlock()
}

// queryDone records one Coordinator.Execute of q that took exec.
func (t *tracer) queryDone(q *query.Query, exec time.Duration) {
	t.mu.Lock()
	rtt := t.queryMax[q]
	delete(t.queryMax, q)
	if rtt > exec {
		t.nestErrors++
	}
	t.mu.Unlock()
	t.gatherSelfUs.add(us(exec - rtt))
}

// timedStorage is the timing decorator around a storage handle.
type timedStorage struct {
	core.Storage
	t *tracer
}

func (s *timedStorage) ProcessEventAsync(ev event.Event) error {
	t0 := time.Now()
	err := s.Storage.ProcessEventAsync(ev)
	s.t.enqueue.add(us(time.Since(t0)))
	return err
}

func (s *timedStorage) ProcessEvent(ev event.Event) (int, error) {
	t0 := time.Now()
	n, err := s.Storage.ProcessEvent(ev)
	d := time.Since(t0)
	s.t.eventRTT.add(ms(d))
	if ev.Caller < freshBase {
		s.t.mu.Lock()
		s.t.eventMax[ev.Caller] = d
		s.t.mu.Unlock()
	}
	return n, err
}

func (s *timedStorage) FlushEvents() error {
	t0 := time.Now()
	err := s.Storage.FlushEvents()
	s.t.flush.add(ms(time.Since(t0)))
	return err
}

// SubmitQueryAsync times the node round trip of a registered client query
// by relaying the response through a goroutine that notes when it arrived.
func (s *timedStorage) SubmitQueryAsync(q *query.Query) (<-chan core.QueryResponse, error) {
	t0 := time.Now()
	ch, err := s.Storage.SubmitQueryAsync(q)
	if err != nil {
		return nil, err
	}
	out := make(chan core.QueryResponse, 1)
	go func() {
		r := <-ch
		d := time.Since(t0)
		s.t.mu.Lock()
		if slowest, ok := s.t.queryMax[q]; ok {
			s.t.queryRTT.add(ms(d))
			s.t.queryMax[q] = max(slowest, d)
		}
		s.t.mu.Unlock()
		out <- r
	}()
	return out, nil
}
