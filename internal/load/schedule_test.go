package load

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFixedRateSchedule(t *testing.T) {
	s := FixedRate{Rate: 100, D: 2 * time.Second}
	if got := s.Arrivals(); got != 200 {
		t.Fatalf("arrivals %d", got)
	}
	if s.At(0) != 0 {
		t.Errorf("At(0)=%v", s.At(0))
	}
	prev := time.Duration(-1)
	for i := 0; i < s.Arrivals(); i++ {
		at := s.At(i)
		if at <= prev {
			t.Fatalf("At not increasing at %d: %v <= %v", i, at, prev)
		}
		if at >= s.Span() {
			t.Fatalf("At(%d)=%v past span %v", i, at, s.Span())
		}
		prev = at
	}
}

// TestOpenLoopNoCoordinatedOmission is the harness's reason to exist:
// with every virtual user artificially stalled far past the arrival
// interval, the dispatcher must keep the clock (finish on schedule),
// account for every arrival as dispatched-or-dropped, and the measured
// latencies — taken from the INTENDED arrival times — must surface the
// queueing delay a closed-loop generator would silently absorb.
func TestOpenLoopNoCoordinatedOmission(t *testing.T) {
	const (
		rate    = 200.0
		span    = time.Second
		stall   = 50 * time.Millisecond // per-op service time, 2 workers: capacity 40/s << 200/s
		workers = 2
		backlog = 16
	)
	sched := FixedRate{Rate: rate, D: span}
	queue := make(chan opTicket, backlog)
	var hist Histogram
	var mu sync.Mutex
	var completed atomic.Int64
	epoch := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range queue {
				time.Sleep(stall) // the wedged handler
				lat := time.Since(epoch.Add(tk.due))
				mu.Lock()
				hist.Record(lat)
				mu.Unlock()
				completed.Add(1)
			}
		}()
	}
	start := time.Now()
	st := openLoop(epoch, sched, func(int) string { return OpState }, queue, nil)
	dispatchWall := time.Since(start)
	close(queue)
	wg.Wait()

	if st.Dispatched+st.Dropped != int64(sched.Arrivals()) {
		t.Fatalf("accounting leak: %d dispatched + %d dropped != %d arrivals",
			st.Dispatched, st.Dropped, sched.Arrivals())
	}
	if st.Dropped == 0 {
		t.Fatal("a saturated run must surface drops, got none")
	}
	if completed.Load() != st.Dispatched {
		t.Fatalf("completed %d != dispatched %d", completed.Load(), st.Dispatched)
	}
	// The clock never stalls: the dispatcher finishes within the span
	// plus scheduling slack, no matter how wedged the workers are.
	if maxWall := span + span/2; dispatchWall > maxWall {
		t.Errorf("dispatcher stalled with the workers: wall %v > %v", dispatchWall, maxWall)
	}
	// Queueing delay is charged to the ops: with a full backlog ahead of
	// every op, median latency must far exceed the 50ms service time.  A
	// coordinated-omission-blind generator would report ~stall here.
	if p50 := hist.Quantile(0.50); p50 < 2*stall {
		t.Errorf("p50 %v does not surface queueing (service time %v)", p50, stall)
	}
}
