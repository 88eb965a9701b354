package fleet

import (
	"sync"
	"time"
)

// breaker is a per-backend circuit breaker, the passive complement to the
// active health checker: probes catch a backend that is down, the breaker
// catches one that answers probes but fails requests. Consecutive request
// failures past the threshold open the circuit; after the cooldown one
// trial request is allowed through (half-open) and its outcome closes or
// re-opens the circuit.
type breaker struct {
	mu        sync.Mutex
	threshold int           // consecutive failures that open the circuit
	cooldown  time.Duration // how long the circuit stays open
	fails     int
	openUntil time.Time // zero when closed
	trial     bool      // a half-open trial request is in flight
	opens     int64     // lifetime count of transitions to open
}

// breakerState names the circuit position for the /fleet status endpoint.
type breakerState string

const (
	breakerClosed   breakerState = "closed"
	breakerOpen     breakerState = "open"
	breakerHalfOpen breakerState = "half-open"
)

func (br *breaker) state(now time.Time) breakerState {
	br.mu.Lock()
	defer br.mu.Unlock()
	switch {
	case br.openUntil.IsZero():
		return breakerClosed
	case now.Before(br.openUntil):
		return breakerOpen
	default:
		return breakerHalfOpen
	}
}

// tryTrial consumes the single half-open trial slot. It returns true only
// when the cooldown has elapsed and no other trial is in flight.
func (br *breaker) tryTrial(now time.Time) bool {
	br.mu.Lock()
	defer br.mu.Unlock()
	if br.openUntil.IsZero() || now.Before(br.openUntil) || br.trial {
		return false
	}
	br.trial = true
	return true
}

// success closes the circuit and resets the failure streak.
func (br *breaker) success() {
	br.mu.Lock()
	br.fails = 0
	br.openUntil = time.Time{}
	br.trial = false
	br.mu.Unlock()
}

// failure records one failed request; it reports true when this failure
// opened (or re-opened) the circuit.
func (br *breaker) failure(now time.Time) bool {
	br.mu.Lock()
	defer br.mu.Unlock()
	br.fails++
	trialFailed := br.trial
	br.trial = false
	switch {
	case br.openUntil.IsZero():
		// Closed: open once the failure streak reaches the threshold.
		if br.fails < br.threshold {
			return false
		}
	case !trialFailed && now.Before(br.openUntil):
		// Already open and this was a straggler from before it opened:
		// nothing new to learn.
		return false
	}
	// Threshold reached, or a half-open trial failed: (re-)open.
	br.openUntil = now.Add(br.cooldown)
	br.opens++
	return true
}
