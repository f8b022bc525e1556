package obs

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRingBufferEviction(t *testing.T) {
	clock := newFakeClock(time.Millisecond)
	tr := NewTracer(3, clock.Now)
	var ids []string
	for i := 0; i < 5; i++ {
		ctx, trace := tr.Start(context.Background(), fmt.Sprintf("r%d", i))
		StartSpan(ctx, "compute").End()
		tr.Finish(trace)
		ids = append(ids, trace.ID())
	}
	for _, id := range ids[:2] {
		if _, ok := tr.Get(id); ok {
			t.Fatalf("trace %s should have been evicted", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := tr.Get(id); !ok {
			t.Fatalf("trace %s should be retained", id)
		}
	}
	got := tr.IDs()
	if len(got) != 3 || got[0] != ids[4] || got[2] != ids[2] {
		t.Fatalf("IDs() = %v, want most-recent-first %v", got, []string{ids[4], ids[3], ids[2]})
	}
	st := tr.Stats()
	if st.Started != 5 || st.Finished != 5 || st.RingSize != 3 || st.Capacity != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRingBufferReleasesEvictedTraces: the ring retains exactly its
// capacity. An evicted trace must become garbage at once, not linger in
// the ring's storage until some later growth copies it away.
func TestRingBufferReleasesEvictedTraces(t *testing.T) {
	const capacity = 4
	tr := NewTracer(capacity, newFakeClock(time.Millisecond).Now)
	var collected atomic.Int32
	var ids []string
	for i := 0; i < 3*capacity; i++ {
		_, trace := tr.Start(context.Background(), "r")
		runtime.SetFinalizer(trace, func(*Trace) { collected.Add(1) })
		tr.Finish(trace)
		ids = append(ids, trace.ID())
	}
	const evicted = 2 * capacity
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < evicted; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d evicted traces were collected; the ring still references the rest", collected.Load(), evicted)
		}
		runtime.GC()
		runtime.Gosched()
	}
	if got := tr.IDs(); len(got) != capacity || got[0] != ids[len(ids)-1] || got[capacity-1] != ids[evicted] {
		t.Fatalf("IDs() = %v, want the last %d most-recent-first", got, capacity)
	}
	for _, id := range ids[:evicted] {
		if _, ok := tr.Get(id); ok {
			t.Fatalf("evicted trace %s still served", id)
		}
	}
	if collected.Load() != evicted {
		t.Fatalf("%d traces collected, want exactly the %d evicted", collected.Load(), evicted)
	}
	runtime.KeepAlive(tr)
}

// TestRingBufferConcurrency drives many goroutines through the full
// trace lifecycle — start, concurrent span writers (the batch-worker
// shape), finish — while readers hammer Get/IDs/StageSnapshot/Record.
// Run under -race this is the tracing layer's core soundness proof.
func TestRingBufferConcurrency(t *testing.T) {
	tr := NewTracer(8, nil) // real clock: exercise the default path
	const (
		writers       = 8
		tracesEach    = 20
		spansPerTrace = 6
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: query the ring and aggregates while traces churn.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range tr.IDs() {
					if rec, ok := tr.Get(id); ok && rec.ID != id {
						t.Errorf("record ID %q under key %q", rec.ID, id)
					}
				}
				tr.StageSnapshot()
				tr.Stats()
			}
		}()
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < tracesEach; i++ {
				ctx, trace := tr.Start(context.Background(), "batch")
				var inner sync.WaitGroup
				for s := 0; s < spansPerTrace; s++ {
					inner.Add(1)
					go func(s int) { // concurrent span writers on ONE trace
						defer inner.Done()
						ictx := WithAnalysis(ctx, fmt.Sprintf("a%d", s%3))
						sp := StartSpan(ictx, "batch-item")
						StartSpan(ictx, "compute").End()
						sp.End()
					}(s)
				}
				inner.Wait()
				tr.Finish(trace)
				// A late span from a flight that outlived its request
				// must be refused without racing the record snapshot.
				StartSpan(ctx, "store").End()
			}
		}(w)
	}

	// Wait for writers only, then stop readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	writersDone := make(chan struct{})
	go func() {
		// The writer goroutines were added to wg before the readers'
		// loop exits; poll Stats until all traces finished.
		for tr.Stats().Finished < writers*tracesEach {
			time.Sleep(time.Millisecond)
		}
		close(writersDone)
	}()
	<-writersDone
	close(stop)
	<-done

	st := tr.Stats()
	if st.Finished != writers*tracesEach {
		t.Fatalf("finished = %d, want %d", st.Finished, writers*tracesEach)
	}
	if st.RingSize != 8 {
		t.Fatalf("ring size = %d, want 8", st.RingSize)
	}
	// Every retained trace must hold the full span set of its lifecycle.
	for _, id := range tr.IDs() {
		rec, ok := tr.Get(id)
		if !ok {
			continue // evicted between IDs and Get; fine
		}
		if want := spansPerTrace * 2; len(rec.Spans) != want {
			t.Fatalf("trace %s has %d spans, want %d", id, len(rec.Spans), want)
		}
	}
}

func TestTraceIDsUnique(t *testing.T) {
	tr := NewTracer(4, nil)
	seen := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, trace := tr.Start(context.Background(), "r")
				mu.Lock()
				if seen[trace.ID()] {
					t.Errorf("duplicate trace ID %s", trace.ID())
				}
				seen[trace.ID()] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}
