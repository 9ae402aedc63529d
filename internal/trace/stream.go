package trace

import "sync"

// Stream is a fan-out Tracer for live consumers: it retains emitted
// events in a bounded replay buffer and forwards them to any number of
// subscribers attached before or during the run. A subscriber first
// receives the replay (everything still buffered at subscription time)
// and then every later event, in emission order, over a single channel
// that closes when the stream closes or the subscription is cancelled.
//
// Stream is the backing sink of statsatd's NDJSON trace endpoint
// (docs/SERVER.md), but it is attack-agnostic: anything that accepts a
// Tracer can be observed live through it.
//
// Delivery never blocks the attack. The replay buffer is a ring with a
// bound: it starts empty and grows with the events it retains, so a
// short run pays only for its own events, and once it holds the bound
// the oldest events are evicted and counted in Dropped. A subscriber
// whose channel is full loses events too, counted per subscription —
// consumers that must not miss events size their buffer accordingly or
// drain promptly.
type Stream struct {
	mu sync.Mutex
	// ring holds the buffered events, oldest at start. It grows by
	// appending (start stays 0) until len(ring) == max, then wraps.
	ring    []Event
	max     int
	start   int
	dropped int64
	subs    map[*StreamSub]struct{}
	closed  bool
}

// streamDefaultBuffer bounds the replay ring when NewStream is given a
// non-positive bound; streamMinRing is the ring's first allocation;
// streamSubBuffer is the default per-subscriber channel slack beyond
// the replay.
const (
	streamDefaultBuffer = 4096
	streamMinRing       = 8
	streamSubBuffer     = 256
)

// NewStream returns an open stream retaining up to max events for
// replay (max <= 0 selects a default of 4096). The bound costs nothing
// up front: the ring's memory follows the events it holds.
func NewStream(max int) *Stream {
	if max <= 0 {
		max = streamDefaultBuffer
	}
	return &Stream{max: max, subs: map[*StreamSub]struct{}{}}
}

// Emit implements Tracer: buffer the event (growing the ring up to its
// bound, then evicting the oldest) and offer it to every live
// subscriber without blocking.
func (s *Stream) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if len(s.ring) < s.max {
		if len(s.ring) == cap(s.ring) {
			// Double, capped at the bound. The ring has not wrapped
			// yet, so the events copy over in order.
			grown := make([]Event, len(s.ring), min(max(2*cap(s.ring), streamMinRing), s.max))
			copy(grown, s.ring)
			s.ring = grown
		}
		s.ring = append(s.ring, ev)
	} else {
		s.ring[s.start] = ev
		s.start = (s.start + 1) % s.max
		s.dropped++
	}
	for sub := range s.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.dropped++
		}
	}
}

// Close ends the stream: every subscriber's channel is closed after
// the events already delivered, later Emit calls are dropped, and
// later Subscribe calls receive the replay followed by an immediately
// closed channel. Close is idempotent.
func (s *Stream) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for sub := range s.subs {
		close(sub.ch)
	}
	s.subs = map[*StreamSub]struct{}{}
}

// Closed reports whether Close has been called.
func (s *Stream) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Dropped returns the number of events evicted from the replay ring so
// far (late subscribers missed at least these).
func (s *Stream) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Len returns the number of events currently buffered for replay.
func (s *Stream) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ring)
}

// StreamSub is one live subscription. Receive from C until it closes;
// call Cancel when done (safe to call even after C closed).
type StreamSub struct {
	// C delivers the replay followed by live events, in order.
	C <-chan Event

	s       *Stream
	ch      chan Event
	dropped int64
	done    bool
}

// Subscribe attaches a consumer: the returned subscription's channel
// already holds every event still buffered (the replay) and then
// receives each later event as it is emitted. buf is extra channel
// capacity beyond the replay for the live tail (buf <= 0 selects a
// default of 256). On a closed stream the channel holds the replay
// alone, since nothing can follow it, and is already closed.
func (s *Stream) Subscribe(buf int) *StreamSub {
	if buf <= 0 {
		buf = streamSubBuffer
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.ring)
	if !s.closed {
		n += buf
	}
	ch := make(chan Event, n)
	for i := range s.ring {
		//lint:ignore lockscope ch is freshly made with capacity at least len(s.ring), so this replay fill can never block
		ch <- s.ring[(s.start+i)%len(s.ring)]
	}
	sub := &StreamSub{C: ch, s: s, ch: ch}
	if s.closed {
		close(ch)
		sub.done = true
		return sub
	}
	s.subs[sub] = struct{}{}
	return sub
}

// Cancel detaches the subscription and closes its channel (unless the
// stream already closed it). Idempotent.
func (sub *StreamSub) Cancel() {
	sub.s.mu.Lock()
	defer sub.s.mu.Unlock()
	if sub.done {
		return
	}
	sub.done = true
	if _, live := sub.s.subs[sub]; live {
		delete(sub.s.subs, sub)
		close(sub.ch)
	}
}

// Dropped returns the number of live events this subscription lost to
// a full channel.
func (sub *StreamSub) Dropped() int64 {
	sub.s.mu.Lock()
	defer sub.s.mu.Unlock()
	return sub.dropped
}
