// Package clockuse exercises the nowallclock analyzer: banned wall-clock
// reads and the legal timer constructors.
package clockuse

import (
	"math/rand"
	"time"
)

func badNow() int64 {
	t := time.Now() // want "wall-clock time.Now"
	return t.Unix()
}

func badSleep() {
	time.Sleep(time.Millisecond) // want "wall-clock time.Sleep"
}

func badSince(t0 time.Time) float64 {
	return time.Since(t0).Seconds() // want "wall-clock time.Since"
}

func badRand() int {
	return rand.Intn(8) // want "math/rand.Intn"
}

// okTimer: the explicit constructors NewTimer/NewTicker are legal —
// harness timeouts never leak a timestamp into simulation state.
func okTimer(timeout time.Duration) bool {
	tm := time.NewTimer(timeout)
	defer tm.Stop()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	select {
	case <-tm.C:
		return false
	case <-tick.C:
		return true
	}
}

// badAfter: time.After schedules an unstoppable wall-clock deadline (and
// leaks the timer until it fires); use NewTimer + Stop.
func badAfter(timeout time.Duration) {
	<-time.After(timeout) // want "wall-clock time.After"
}

// badAfterFunc: time.AfterFunc fires a callback off the host clock.
func badAfterFunc(f func()) {
	time.AfterFunc(time.Second, f) // want "wall-clock time.AfterFunc"
}
