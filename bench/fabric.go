package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"samft/internal/netsim"
	"samft/internal/pvm"
)

// The benchmark's own message tags, registered in the module-wide Tag*
// namespace (samlint tagunique). internal/benchkit has its own; the two
// share nothing, so benchkit stays free to change.
const (
	// TagFabric marks the all-to-all messages of the fabric64 loop.
	TagFabric = pvm.TagUserBase + 32
	// TagPing marks the single-pair and fan-in driver messages.
	TagPing = pvm.TagUserBase + 33
	// TagFill marks filler messages that deepen a mailbox and are never
	// matched.
	TagFill = pvm.TagUserBase + 34
)

const (
	fabricProcs   = 64
	fabricRounds  = 50
	fabricPayload = 32
	// fabricMsgs is the message count of one fabric sample.
	fabricMsgs = fabricRounds * fabricProcs * (fabricProcs - 1)
)

// fabricSample runs one fabric64 sample: fabricProcs pvm tasks on one
// simulated network each send one message to every other task and then
// receive one from every other task by exact (source, tag) match, for
// fabricRounds rounds. It returns the host time from the common start to
// the last task's exit, and an error if any receive returned the wrong
// source, tag or size.
func fabricSample() (time.Duration, error) {
	m := pvm.NewMachine(netsim.DefaultConfig())
	defer m.Halt()
	tasks := make([]*pvm.Task, fabricProcs)
	tids := make([]pvm.TID, fabricProcs)
	errs := make([]error, fabricProcs)
	payload := make([]byte, fabricPayload)
	start := make(chan struct{})
	for i := range tasks {
		i := i
		tasks[i] = m.Spawn("fabric", func(t *pvm.Task) {
			<-start
			errs[i] = fabricBody(t, i, tids, payload)
		})
		tids[i] = tasks[i].TID()
	}
	t0 := time.Now()
	close(start)
	for _, t := range tasks {
		<-t.Done()
	}
	dt := time.Since(t0)
	for i, t := range tasks {
		if err := t.Err(); err != nil {
			return dt, err
		}
		if errs[i] != nil {
			return dt, errs[i]
		}
	}
	return dt, nil
}

func fabricBody(t *pvm.Task, self int, tids []pvm.TID, payload []byte) error {
	for r := 0; r < fabricRounds; r++ {
		for j, dst := range tids {
			if j == self {
				continue
			}
			if err := t.Send(dst, TagFabric, payload); err != nil {
				return fmt.Errorf("fabric: task %d send to %d: %w", self, j, err)
			}
		}
		for j, src := range tids {
			if j == self {
				continue
			}
			msg, err := t.Recv(src, TagFabric)
			if err != nil {
				return fmt.Errorf("fabric: task %d recv from %d: %w", self, j, err)
			}
			if msg.Src != src || msg.Tag != TagFabric || len(msg.Payload) != fabricPayload {
				return fmt.Errorf("fabric: task %d round %d wanted %dB from tid %d, got %s",
					self, r, fabricPayload, src, msg.String())
			}
		}
	}
	return nil
}

// fabricAcc collects fabric64 samples: messages per host second and
// allocated MB of each good sample, and the attempted/failed counts. A
// failed sample is left out of both slices.
type fabricAcc struct {
	msgsPerS, allocMB []float64
	attempted, failed int
	problems          []string
}

func (a *fabricAcc) sample() {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dt, err := fabricSample()
	runtime.ReadMemStats(&after)
	a.attempted++
	if err != nil {
		a.failed++
		a.problems = append(a.problems, err.Error())
		return
	}
	a.msgsPerS = append(a.msgsPerS, fabricMsgs/dt.Seconds())
	a.allocMB = append(a.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
}

// timeOps calls f, which performs ops operations, samples times and
// returns each call's host nanoseconds per operation.
func timeOps(samples, ops int, f func()) []float64 {
	out := make([]float64, samples)
	for i := range out {
		t0 := time.Now()
		f()
		out[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return out
}

// must aborts a layer driver on an error no input can cause: the drivers
// call the layers with fixed, valid arguments.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// netsimDrivers measures the fabric primitives the way sam uses them.
func netsimDrivers(samples int, add addFunc) {
	const ops = 10000

	// One send plus one wildcard receive between a single pair.
	n := netsim.New(netsim.DefaultConfig())
	a, b := n.NewEndpoint(), n.NewEndpoint()
	payload := make([]byte, 64)
	pingPong := func() {
		for i := 0; i < ops; i++ {
			must(a.Send(b.TID(), TagPing, payload))
			_, err := b.Recv(netsim.AnySrc, netsim.AnyTag)
			must(err)
		}
	}
	pingPong() // warm the mailbox and message pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ns := timeOps(samples, ops, pingPong)
	runtime.ReadMemStats(&after)
	add("netsim.send_recv_ns", ns)
	add("netsim.send_recv_allocs", []float64{float64(after.Mallocs-before.Mallocs) / float64(samples*ops)})
	n.Close()

	// Exact-tag receive past 1024 queued messages that never match.
	n = netsim.New(netsim.DefaultConfig())
	a, b = n.NewEndpoint(), n.NewEndpoint()
	for i := 0; i < 1024; i++ {
		//samlint:allow tagflow -- the fill tag is deliberately never received; the driver measures matching past it
		must(a.Send(b.TID(), TagFill, nil))
	}
	add("netsim.match_deep1024_ns", timeOps(samples, ops, func() {
		for i := 0; i < ops; i++ {
			must(a.Send(b.TID(), TagPing, payload))
			_, err := b.Recv(a.TID(), TagPing)
			must(err)
		}
	}))
	n.Close()

	// 32 concurrent senders into one wildcard-source receiver: the sam
	// home directory / recovery coordinator pattern.
	const senders, rounds = 32, 150
	n = netsim.New(netsim.DefaultConfig())
	sink := n.NewEndpoint()
	srcs := make([]*netsim.Endpoint, senders)
	for i := range srcs {
		srcs[i] = n.NewEndpoint()
	}
	perMsg := timeOps(samples, senders*rounds, func() {
		for r := 0; r < rounds; r++ {
			var wg sync.WaitGroup
			for _, e := range srcs {
				wg.Add(1)
				go func(e *netsim.Endpoint) {
					defer wg.Done()
					must(e.Send(sink.TID(), TagPing, payload))
				}(e)
			}
			for i := 0; i < senders; i++ {
				_, err := sink.Recv(netsim.AnySrc, TagPing)
				must(err)
			}
			wg.Wait()
		}
	})
	for i, v := range perMsg {
		perMsg[i] = 1e9 / v
	}
	add("netsim.fan_in32_msgs_per_s", perMsg)
	n.Close()
}

// pvmDrivers measures the pvm veneer: the same ping-pong as
// netsim.send_recv_ns through Task.Send/Recv (the difference is pvm's
// own cost), and the spawn-to-exit cost of a task.
func pvmDrivers(samples int, add addFunc) {
	const ops = 10000
	m := pvm.NewMachine(netsim.DefaultConfig())
	defer m.Halt()
	payload := make([]byte, 64)
	hold := make(chan struct{})
	peer := m.Spawn("peer", func(*pvm.Task) { <-hold })
	var ns []float64
	driver := m.Spawn("driver", func(t *pvm.Task) {
		ns = timeOps(samples, ops, func() {
			for i := 0; i < ops; i++ {
				must(t.Send(peer.TID(), TagPing, payload))
				_, err := peer.Recv(t.TID(), TagPing)
				must(err)
			}
		})
	})
	<-driver.Done()
	close(hold)
	<-peer.Done()
	must(driver.Err())
	add("pvm.send_recv_ns", ns)

	const spawns = 200
	us := timeOps(samples, spawns, func() {
		for i := 0; i < spawns; i++ {
			<-m.Spawn("noop", func(*pvm.Task) {}).Done()
		}
	})
	for i := range us {
		us[i] /= 1000
	}
	add("pvm.spawn_exit_us", us)
}
