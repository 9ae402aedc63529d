package trace

import (
	"math/rand"
	"sync"
	"testing"
)

func evN(n int) Event {
	return Event{Type: IterStart, Iter: n, Instance: 0}
}

func TestStreamReplayThenLive(t *testing.T) {
	s := NewStream(16)
	for i := 0; i < 3; i++ {
		s.Emit(evN(i))
	}
	sub := s.Subscribe(8)
	defer sub.Cancel()
	// Replay: the three buffered events are already in the channel.
	for i := 0; i < 3; i++ {
		ev := <-sub.C
		if ev.Iter != i {
			t.Fatalf("replay event %d has iter %d", i, ev.Iter)
		}
	}
	// Live tail.
	s.Emit(evN(3))
	if ev := <-sub.C; ev.Iter != 3 {
		t.Fatalf("live event iter = %d, want 3", ev.Iter)
	}
}

func TestStreamRingEviction(t *testing.T) {
	s := NewStream(4)
	for i := 0; i < 10; i++ {
		s.Emit(evN(i))
	}
	if got := s.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := s.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	sub := s.Subscribe(1)
	defer sub.Cancel()
	// Replay holds only the newest 4, oldest first.
	for want := 6; want < 10; want++ {
		if ev := <-sub.C; ev.Iter != want {
			t.Fatalf("replay iter = %d, want %d", ev.Iter, want)
		}
	}
}

func TestStreamCloseEndsSubscribers(t *testing.T) {
	s := NewStream(8)
	s.Emit(evN(0))
	sub := s.Subscribe(4)
	s.Close()
	if !s.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	// The pre-close event is still delivered, then the channel closes.
	if ev, ok := <-sub.C; !ok || ev.Iter != 0 {
		t.Fatalf("pre-close event = %+v ok=%v", ev, ok)
	}
	if _, ok := <-sub.C; ok {
		t.Fatal("channel still open after Close")
	}
	// Emit after close is dropped silently.
	s.Emit(evN(1))
	if s.Len() != 1 {
		t.Fatalf("Len after post-close emit = %d, want 1", s.Len())
	}
	// Close and Cancel stay idempotent.
	s.Close()
	sub.Cancel()
	sub.Cancel()
}

func TestStreamSubscribeAfterClose(t *testing.T) {
	s := NewStream(8)
	s.Emit(evN(0))
	s.Emit(evN(1))
	s.Close()
	sub := s.Subscribe(0)
	var got []int
	for ev := range sub.C { // closed channel: loop ends after replay
		got = append(got, ev.Iter)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("replay after close = %v", got)
	}
	// Nothing can follow the replay, so the channel holds it alone.
	if cap(sub.C) != s.Len() {
		t.Fatalf("cap(sub.C) = %d after close, want Len() = %d", cap(sub.C), s.Len())
	}
	sub.Cancel() // must not panic on the already-closed channel
}

func TestStreamSlowSubscriberDropsNotBlocks(t *testing.T) {
	s := NewStream(64)
	sub := s.Subscribe(2) // room for 2 live events, no replay
	defer sub.Cancel()
	for i := 0; i < 10; i++ {
		s.Emit(evN(i)) // must never block even though nobody drains
	}
	if got := sub.Dropped(); got != 8 {
		t.Fatalf("sub.Dropped = %d, want 8", got)
	}
	// The two delivered events are the earliest ones.
	if ev := <-sub.C; ev.Iter != 0 {
		t.Fatalf("first delivered iter = %d, want 0", ev.Iter)
	}
}

func TestStreamCancelDetaches(t *testing.T) {
	s := NewStream(8)
	sub := s.Subscribe(4)
	sub.Cancel()
	if _, ok := <-sub.C; ok {
		t.Fatal("channel open after Cancel")
	}
	s.Emit(evN(0)) // must not panic (send on closed channel) post-Cancel
	s.Close()
}

func TestStreamConcurrentEmitSubscribe(t *testing.T) {
	s := NewStream(128)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			s.Emit(evN(i))
		}
		s.Close()
	}()
	var received int
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			sub := s.Subscribe(16)
			for range sub.C {
				received++
				break // sample one event, then detach
			}
			sub.Cancel()
		}
	}()
	wg.Wait()
	_ = received // the assertions are -race cleanliness and no deadlock
}

func TestStreamDefaultCapacity(t *testing.T) {
	s := NewStream(0)
	for i := 0; i < 4097; i++ {
		s.Emit(evN(i))
	}
	if got := s.Len(); got != 4096 {
		t.Fatalf("Len = %d, want the default bound 4096", got)
	}
	if got := s.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	sub := s.Subscribe(1)
	defer sub.Cancel()
	if ev := <-sub.C; ev.Iter != 1 {
		t.Fatalf("replay starts at iter %d, want the second event (1)", ev.Iter)
	}
}

// TestStreamShortRunBytes guards the ring's growth with its events: a
// 16-event run under the default bound, closed and replayed once, must
// cost a few KiB, not the bound's 4096 slots (about 750 KiB).
func TestStreamShortRunBytes(t *testing.T) {
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := NewStream(4096)
			for j := 0; j < 16; j++ {
				s.Emit(evN(j))
			}
			s.Close()
			for range s.Subscribe(0).C {
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 16<<10 {
		t.Fatalf("a 16-event stream allocated %d B per run, want < 16 KiB", got)
	}
}

// modelSub is the reference for one subscription: its channel's
// capacity, the events sent to it and not yet received, and its drops.
type modelSub struct {
	sub      *StreamSub
	capacity int
	queued   []int
	dropped  int64
	closed   bool
}

// TestStreamMatchesModel runs random sequences of Emit, Subscribe,
// partial drains, Cancel and Close against a reference that keeps the
// last max events in a plain slice. The bounds are small enough that
// most sequences cross from growing the ring to wrapping it; 20 and 64
// cross several growth steps first, and 20 caps the last one.
func TestStreamMatchesModel(t *testing.T) {
	for _, bound := range []int{1, 2, 3, 5, 20, 64} {
		for run := 0; run < 40; run++ {
			rng := rand.New(rand.NewSource(int64(bound*1000 + run)))
			s := NewStream(bound)
			var (
				kept    []int // the last bound events, oldest first
				dropped int64
				closed  bool
				subs    []*modelSub
				next    int
			)
			// recv takes one event from m's channel and checks it is
			// the oldest one the model queued.
			recv := func(m *modelSub) {
				ev, ok := <-m.sub.C
				if !ok || ev.Iter != m.queued[0] {
					t.Fatalf("bound %d run %d: received iter %d (ok=%v), want %d", bound, run, ev.Iter, ok, m.queued[0])
				}
				m.queued = m.queued[1:]
			}
			for op := 0; op < 300; op++ {
				switch r := rng.Intn(20); {
				case r < 12:
					s.Emit(evN(next))
					if !closed {
						kept = append(kept, next)
						if len(kept) > bound {
							kept = kept[1:]
							dropped++
						}
						for _, m := range subs {
							switch {
							case m.closed:
							case len(m.queued) < m.capacity:
								m.queued = append(m.queued, next)
							default:
								m.dropped++
							}
						}
					}
					next++
				case r < 14:
					buf := rng.Intn(4) // 0 selects the default slack
					m := &modelSub{sub: s.Subscribe(buf), queued: append([]int(nil), kept...), closed: closed}
					m.capacity = len(kept)
					if !closed {
						if buf == 0 {
							buf = streamSubBuffer
						}
						m.capacity += buf
					}
					if got := cap(m.sub.C); got != m.capacity {
						t.Fatalf("bound %d run %d: cap(sub.C) = %d, want %d", bound, run, got, m.capacity)
					}
					subs = append(subs, m)
				case r < 18 && len(subs) > 0:
					m := subs[rng.Intn(len(subs))]
					for k := rng.Intn(4); k > 0 && len(m.queued) > 0; k-- {
						recv(m)
					}
				case r < 19 && len(subs) > 0:
					m := subs[rng.Intn(len(subs))]
					m.sub.Cancel()
					m.closed = true
				case r == 19:
					s.Close()
					closed = true
					for _, m := range subs {
						m.closed = true
					}
				}
				if s.Len() != len(kept) || s.Dropped() != dropped {
					t.Fatalf("bound %d run %d op %d: Len %d Dropped %d, want %d and %d",
						bound, run, op, s.Len(), s.Dropped(), len(kept), dropped)
				}
			}
			for i, m := range subs {
				if got := m.sub.Dropped(); got != m.dropped {
					t.Fatalf("bound %d run %d sub %d: Dropped = %d, want %d", bound, run, i, got, m.dropped)
				}
				m.sub.Cancel()
				for len(m.queued) > 0 {
					recv(m)
				}
				if ev, ok := <-m.sub.C; ok {
					t.Fatalf("bound %d run %d sub %d: extra event iter %d", bound, run, i, ev.Iter)
				}
			}
		}
	}
}
