package serve

// admission is the bounded in-flight gate in front of every query
// endpoint. It is a try-acquire semaphore, not a queue: a request that
// finds all slots busy is rejected immediately with 429 rather than
// parked, so a burst cannot build an unbounded backlog of goroutines
// all holding graph references and deadlines. Retry pressure is pushed
// to the client via Retry-After.
type admission struct {
	slots chan struct{}
}

func newAdmission(maxInFlight int) *admission {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	return &admission{slots: make(chan struct{}, maxInFlight)}
}

// tryAcquire claims a slot if one is free; the caller must release()
// exactly once when it returns true.
func (a *admission) tryAcquire() bool {
	select {
	case a.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (a *admission) release() { <-a.slots }

// inFlight returns the number of currently held slots.
func (a *admission) inFlight() int { return len(a.slots) }
