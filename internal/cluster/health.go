package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/event"
)

// ErrNodeDown is the sentinel matched by errors.Is for operations refused
// because a storage node's circuit breaker is open (and, for events, the
// spill queue is full or disabled).
var ErrNodeDown = errors.New("cluster: node unavailable")

// NodeDownError reports which node was unavailable and why.
type NodeDownError struct {
	// Node is the index of the storage server in the cluster.
	Node int
	// Err is the last failure observed from the node (may be nil).
	Err error
}

func (e *NodeDownError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("cluster: node %d unavailable: %v", e.Node, e.Err)
	}
	return fmt.Sprintf("cluster: node %d unavailable", e.Node)
}

func (e *NodeDownError) Unwrap() error        { return e.Err }
func (e *NodeDownError) Is(target error) bool { return target == ErrNodeDown }

// BreakerState is a node circuit breaker's state.
type BreakerState int

const (
	// BreakerClosed: the node is healthy; traffic flows.
	BreakerClosed BreakerState = iota
	// BreakerOpen: consecutive failures crossed the threshold; traffic is
	// refused (events spill) until the probe interval elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe operation is allowed through; success
	// closes the breaker, failure re-opens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// SpillPolicy selects what the event spill path does when a node's bounded
// retry queue is full.
type SpillPolicy int

const (
	// SpillReject (the default) refuses the event with a typed overload
	// error carrying a retry-after hint. The caller keeps the event —
	// nothing is silently lost — and its own backoff/retry machinery
	// decides when to resubmit.
	SpillReject SpillPolicy = iota
	// SpillDropOldest evicts the oldest queued events to admit new ones,
	// preferring fresh data under sustained overload. Evictions are real
	// losses, counted in NodeHealth.Dropped.
	SpillDropOldest
	// SpillBlock waits for the drainer to free queue space, applying
	// head-of-line backpressure to the producer instead of shedding. If
	// the node never recovers the producer blocks until the cluster is
	// closed.
	SpillBlock
)

// String implements fmt.Stringer.
func (p SpillPolicy) String() string {
	switch p {
	case SpillReject:
		return "reject"
	case SpillDropOldest:
		return "drop-oldest"
	case SpillBlock:
		return "block"
	}
	return "unknown"
}

// ParseSpillPolicy maps a flag string onto a SpillPolicy.
func ParseSpillPolicy(s string) (SpillPolicy, error) {
	switch s {
	case "reject", "":
		return SpillReject, nil
	case "drop-oldest":
		return SpillDropOldest, nil
	case "block":
		return SpillBlock, nil
	}
	return SpillReject, fmt.Errorf("cluster: unknown spill policy %q (want reject, drop-oldest or block)", s)
}

// HealthConfig tunes per-node failure tracking. The zero value selects the
// defaults.
type HealthConfig struct {
	// FailureThreshold is how many consecutive failures open the breaker
	// (default 5; negative disables health tracking entirely).
	FailureThreshold int
	// ProbeInterval is how long an open breaker waits before letting a
	// half-open probe through (default 500ms).
	ProbeInterval time.Duration
	// RetryQueue bounds the per-node spill queue for fire-and-forget
	// events while the node is down (default 4096; negative disables
	// spilling, making event routing fail fast instead).
	RetryQueue int
	// RetryInterval is the background drainer's pacing (default 20ms).
	RetryInterval time.Duration
	// SpillPolicy selects the overflow behavior of a full spill queue
	// (default SpillReject: surface a typed overload error).
	SpillPolicy SpillPolicy
	// SpillRetryAfter is the retry hint attached to overflow rejections
	// (default: RetryInterval, the drainer's pacing — the earliest a slot
	// can plausibly free up).
	SpillRetryAfter time.Duration
}

func (cfg HealthConfig) withDefaults() HealthConfig {
	if cfg.FailureThreshold == 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.RetryQueue == 0 {
		cfg.RetryQueue = 4096
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 20 * time.Millisecond
	}
	if cfg.SpillRetryAfter <= 0 {
		cfg.SpillRetryAfter = cfg.RetryInterval
	}
	return cfg
}

// NodeHealth is an observable snapshot of one node's failure state.
type NodeHealth struct {
	State        BreakerState
	ConsecFails  int
	QueuedEvents int
	Spilled      uint64 // events ever diverted to the spill queue
	Replayed     uint64 // spilled events successfully delivered
	Dropped      uint64 // events lost to drop-oldest evictions
	Rejected     uint64 // events refused with a typed overload error (caller retains them)
	LastErr      error
}

// nodeHealth is the live circuit breaker + spill queue for one node.
type nodeHealth struct {
	// replayMu serializes spill-queue replay: the background drainer and
	// FlushEvents deliver popped batches one at a time, so replay keeps
	// queue order and a flush cannot return while a drainer batch is
	// still in flight.
	replayMu sync.Mutex
	mu       sync.Mutex
	state    BreakerState
	fails    int
	lastErr  error
	probeAt  time.Time // when an open breaker may half-open
	probing  bool      // a half-open probe is in flight
	queue    []event.Event
	spilled  uint64
	replayed uint64
	dropped  uint64
	rejected uint64
}

// allow reports whether an operation may be sent to the node right now.
// In the open state it flips to half-open once the probe interval elapsed,
// admitting exactly one probe.
func (h *nodeHealth) allow(now time.Time) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Before(h.probeAt) {
			return false
		}
		h.state = BreakerHalfOpen
		h.probing = true
		return true
	default: // half-open: one probe at a time
		if h.probing {
			return false
		}
		h.probing = true
		return true
	}
}

// record folds an operation outcome into the breaker. Version conflicts
// and admission-control rejections are application-level outcomes from a
// live node, not failures: an overloaded node is shedding on purpose, and
// opening the breaker for it would turn backpressure into an outage.
func (h *nodeHealth) record(err error, threshold int, probeInterval time.Duration) {
	isFailure := err != nil &&
		!errors.Is(err, core.ErrVersionConflict) &&
		!errors.Is(err, core.ErrOverloaded)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.probing = false
	if !isFailure {
		h.state = BreakerClosed
		h.fails = 0
		return
	}
	h.fails++
	h.lastErr = err
	if h.state == BreakerHalfOpen || h.fails >= threshold {
		h.state = BreakerOpen
		h.probeAt = time.Now().Add(probeInterval)
	}
}

// reset closes the breaker after the node's handle was replaced (restart
// recovery). The spill queue and its counters are preserved: the events
// queued during the outage still need to replay onto the recovered node.
func (h *nodeHealth) reset() {
	h.mu.Lock()
	h.state = BreakerClosed
	h.fails = 0
	h.lastErr = nil
	h.probing = false
	h.mu.Unlock()
}

// releaseProbe returns an unused half-open probe token (the caller decided
// not to send anything after all).
func (h *nodeHealth) releaseProbe() {
	h.mu.Lock()
	h.probing = false
	h.mu.Unlock()
}

// spill queues ev for background replay; reports false when the queue is
// full or disabled. A full queue under SpillDropOldest evicts its oldest
// events to admit ev (counted as dropped — those are real losses); under
// SpillReject the refusal is counted so callers can surface a typed
// overload error. SpillBlock refusals are not counted: the caller polls
// until a slot frees up, and counting every poll would inflate the stat.
func (h *nodeHealth) spill(ev event.Event, bound int, policy SpillPolicy) bool {
	if bound < 0 {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if bound > 0 && len(h.queue) >= bound {
		if policy != SpillDropOldest {
			if policy == SpillReject {
				h.rejected++
			}
			return false
		}
		evict := len(h.queue) - bound + 1
		h.queue = h.queue[evict:]
		h.dropped += uint64(evict)
	}
	h.queue = append(h.queue, ev)
	h.spilled++
	return true
}

// popBatch removes up to max oldest queued events, preserving their order.
// The returned slice is a copy, safe to hand to a delivery that may retain
// it.
func (h *nodeHealth) popBatch(max int) []event.Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.queue) == 0 {
		return nil
	}
	n := min(max, len(h.queue))
	evs := make([]event.Event, n)
	copy(evs, h.queue[:n])
	h.queue = h.queue[n:]
	return evs
}

// requeueFront puts the undelivered suffix of a popped batch back at the
// front, preserving order relative to events queued meanwhile.
func (h *nodeHealth) requeueFront(evs []event.Event) {
	if len(evs) == 0 {
		return
	}
	h.mu.Lock()
	h.queue = append(append(make([]event.Event, 0, len(evs)+len(h.queue)), evs...), h.queue...)
	h.mu.Unlock()
}

// addReplayed counts n successfully redelivered events.
func (h *nodeHealth) addReplayed(n int) {
	if n == 0 {
		return
	}
	h.mu.Lock()
	h.replayed += uint64(n)
	h.mu.Unlock()
}

func (h *nodeHealth) queued() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.queue)
}

func (h *nodeHealth) snapshot() NodeHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	return NodeHealth{
		State:        h.state,
		ConsecFails:  h.fails,
		QueuedEvents: len(h.queue),
		Spilled:      h.spilled,
		Replayed:     h.replayed,
		Dropped:      h.dropped,
		Rejected:     h.rejected,
		LastErr:      h.lastErr,
	}
}
