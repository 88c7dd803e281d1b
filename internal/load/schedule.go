package load

import "time"

// FixedRate is the open-loop arrival plan: every operation has an intended
// start offset fixed before the run begins, independent of how fast the
// system under test answers — arrival i at i/Rate, for a span of D.
// Latency is measured from the intended offset, so time an operation spends
// queued behind a stalled handler is charged to that operation —
// coordinated omission is measured, never hidden by a generator that only
// sends as fast as responses return.
type FixedRate struct {
	Rate float64 // arrivals per second, > 0
	D    time.Duration
}

// Arrivals is the total number of intended operations.
func (f FixedRate) Arrivals() int {
	if f.Rate <= 0 || f.D <= 0 {
		return 0
	}
	return int(f.Rate * f.D.Seconds())
}

// At returns the intended start offset of arrival i.
func (f FixedRate) At(i int) time.Duration {
	return time.Duration(float64(i) / f.Rate * float64(time.Second))
}

// Span is the nominal length of the plan (the offset ceiling).
func (f FixedRate) Span() time.Duration { return f.D }

// openLoopStats is what the dispatcher hands back: how many arrivals it
// fired and how many it had to drop because the backlog bound was hit
// (every drop is loud in the results — a saturated system under an
// open-loop plan must surface as drops + queueing latency, never as a
// quietly slowed-down clock).
type openLoopStats struct {
	Dispatched int64
	Dropped    int64
}

// opTicket is one intended operation: its class and intended offset.
type opTicket struct {
	class string
	due   time.Duration
}

// openLoop walks the schedule in real time against epoch, assigning each
// arrival its op class via pick and handing it to the worker pool through
// a bounded queue.  The dispatcher NEVER blocks on the queue: when every
// virtual user is wedged and the backlog is full, the arrival is counted
// as dropped and the clock keeps its pace.  Returns once every arrival
// has been dispatched or dropped; the caller closes the queue after.
func openLoop(epoch time.Time, sched FixedRate, pick func(i int) string, queue chan<- opTicket, stop <-chan struct{}) openLoopStats {
	var st openLoopStats
	n := sched.Arrivals()
	for i := 0; i < n; i++ {
		due := sched.At(i)
		if wait := time.Until(epoch.Add(due)); wait > 0 {
			select {
			case <-stop:
				return st
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return st
			default:
			}
		}
		select {
		case queue <- opTicket{class: pick(i), due: due}:
			st.Dispatched++
		default:
			st.Dropped++
		}
	}
	return st
}
