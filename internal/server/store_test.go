package server

import (
	"errors"
	"sync"
	"testing"

	"statsat/internal/trace"
)

// bareJob builds a store-insertable job in the given state without the
// full admission machinery.
func bareJob(state State) *Job {
	return &Job{state: state, done: make(chan struct{})}
}

func TestStoreAddAssignsSequentialIDs(t *testing.T) {
	s := newStore(4)
	a, b := bareJob(StateQueued), bareJob(StateQueued)
	if _, err := s.add(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.add(b); err != nil {
		t.Fatal(err)
	}
	if a.ID != "j000001" || b.ID != "j000002" {
		t.Fatalf("IDs = %q, %q", a.ID, b.ID)
	}
	if got, ok := s.get("j000002"); !ok || got != b {
		t.Fatal("get by ID failed")
	}
	if len(s.list()) != 2 {
		t.Fatalf("len = %d", len(s.list()))
	}
}

func TestStoreEvictsOldestTerminal(t *testing.T) {
	s := newStore(2)
	oldDone := bareJob(StateDone)
	live := bareJob(StateRunning)
	if _, err := s.add(oldDone); err != nil {
		t.Fatal(err)
	}
	if _, err := s.add(live); err != nil {
		t.Fatal(err)
	}
	next := bareJob(StateQueued)
	evicted, err := s.add(next)
	if err != nil {
		t.Fatalf("add with evictable job: %v", err)
	}
	if len(evicted) != 1 || evicted[0] != oldDone {
		t.Fatalf("evicted = %v, want the terminal job", evicted)
	}
	if _, ok := s.get(oldDone.ID); ok {
		t.Error("terminal job not evicted")
	}
	if _, ok := s.get(live.ID); !ok {
		t.Error("live job evicted")
	}
	order := s.list()
	if len(order) != 2 || order[0] != live || order[1] != next {
		t.Fatalf("order after eviction = %v", order)
	}
}

func TestStoreFullWhenAllLive(t *testing.T) {
	s := newStore(2)
	if _, err := s.add(bareJob(StateRunning)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.add(bareJob(StateQueued)); err != nil {
		t.Fatal(err)
	}
	_, err := s.add(bareJob(StateQueued))
	if !errors.Is(err, ErrStoreFull) {
		t.Fatalf("err = %v, want ErrStoreFull", err)
	}
}

func TestStoreRemove(t *testing.T) {
	s := newStore(4)
	j := bareJob(StateQueued)
	if _, err := s.add(j); err != nil {
		t.Fatal(err)
	}
	s.remove(j.ID)
	if _, ok := s.get(j.ID); ok {
		t.Error("job still present after remove")
	}
	if len(s.list()) != 0 {
		t.Fatalf("len = %d after remove", len(s.list()))
	}
	s.remove("j999999") // unknown ID is a no-op
}

func TestStoreAdoptPreservesIDAndSeq(t *testing.T) {
	s := newStore(4)
	rec := bareJob(StateDone)
	rec.ID = "j000007"
	if err := s.adopt(rec); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.get("j000007"); !ok || got != rec {
		t.Fatal("adopted job not retrievable under its recovered ID")
	}
	fresh := bareJob(StateQueued)
	if _, err := s.add(fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.ID != "j000008" {
		t.Fatalf("fresh ID after adopt = %q, want j000008", fresh.ID)
	}
}

func TestMemQueueEnqueueAfterCloseRefused(t *testing.T) {
	q := newQueue(1)
	a := bareJob(StateQueued)
	if err := q.put(a); err != nil {
		t.Fatalf("put on open queue: %v", err)
	}
	if err := q.put(bareJob(StateQueued)); !errors.Is(err, errQueueFull) {
		t.Fatalf("put on full queue = %v, want errQueueFull", err)
	}
	q.close()
	if err := q.put(bareJob(StateQueued)); !errors.Is(err, errShutdown) {
		t.Fatalf("put on closed queue = %v, want errShutdown", err)
	}
	// The backlog still drains after close...
	if j, ok := q.take(); !ok || j != a {
		t.Fatalf("take after close = %v, %v", j, ok)
	}
	// ...and then take reports closure.
	if _, ok := q.take(); ok {
		t.Fatal("take on drained closed queue reported ok")
	}
	q.close() // idempotent
}

// TestCancelQueuedJobRacingStart releases Cancel and a worker's
// tryStart on a queued job at the same instant, 20000 times. Exactly
// one may win: a job that started must not also be settled cancelled
// by Cancel, which would let its running record land after the
// cancelled one and resurrect it on restart.
func TestCancelQueuedJobRacingStart(t *testing.T) {
	cause := errors.New("cancelled by test")
	for i := 0; i < 20000; i++ {
		j := bareJob(StateQueued)
		j.stream = trace.NewStream(1)
		var wg sync.WaitGroup
		gate := make(chan struct{})
		started := false
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-gate
			j.Cancel(cause)
		}()
		go func() {
			defer wg.Done()
			<-gate
			started = j.tryStart()
		}()
		close(gate)
		wg.Wait()
		if st := j.State(); started == (st == StateCancelled) {
			t.Fatalf("round %d: tryStart = %v, state %s", i, started, st)
		}
	}
}
