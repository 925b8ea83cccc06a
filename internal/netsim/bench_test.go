package netsim_test

import (
	"fmt"
	"sync"
	"testing"

	"samft/internal/netsim"
	"samft/internal/pvm"
)

// Benchmark fabric tags, above the tags SAM and PVM use.
const (
	// TagBench marks the messages a benchmark measures.
	TagBench = pvm.TagUserBase + 8
	// TagBenchFill marks never-matched filler messages (deep-queue runs).
	TagBenchFill = pvm.TagUserBase + 9
)

// msgsPerSec is the unit under which throughput benchmarks report their
// headline metric.
const msgsPerSec = "msgs/s"

// BenchmarkSendRecv measures the steady-state cost of one send plus one
// wildcard receive between a single pair of endpoints. Its allocs/op is
// zero, pinned by TestSendRecvAllocFree.
func BenchmarkSendRecv(b *testing.B) { sendRecv(b, nil) }

// BenchmarkSendRecvBody56K is BenchmarkSendRecv with a two-part send whose
// body is 56 KB, the size of a paper-scale Barnes partition frame. The body
// moves by reference, so the cost is BenchmarkSendRecv's, whatever its size.
func BenchmarkSendRecvBody56K(b *testing.B) { sendRecv(b, make([]byte, 56<<10)) }

func sendRecv(b *testing.B, body []byte) {
	n := netsim.New(netsim.DefaultConfig())
	defer n.Close()
	a, dst := n.NewEndpoint(), n.NewEndpoint()
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if body == nil {
			err = a.Send(dst.TID(), TagBench, payload)
		} else {
			err = a.SendParts(dst.TID(), TagBench, payload, body)
		}
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dst.Recv(netsim.AnySrc, netsim.AnyTag); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSendRecvExact is BenchmarkSendRecv with an exact (src, tag)
// match instead of wildcards; with one message queued it too matches the
// head.
func BenchmarkSendRecvExact(b *testing.B) {
	n := netsim.New(netsim.DefaultConfig())
	defer n.Close()
	a, dst := n.NewEndpoint(), n.NewEndpoint()
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(dst.TID(), TagBench, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := dst.Recv(a.TID(), TagBench); err != nil {
			b.Fatal(err)
		}
	}
}

// matchDeepQueue returns a benchmark that receives by exact tag past
// depth non-matching messages — the matching scan's worst case, O(depth)
// per receive. No runtime receives this way (their wildcard receive takes
// the head); the number is the cost the scan accepts.
func matchDeepQueue(depth int) func(b *testing.B) {
	return func(b *testing.B) {
		n := netsim.New(netsim.DefaultConfig())
		defer n.Close()
		a, dst := n.NewEndpoint(), n.NewEndpoint()
		// Fill the queue with filler-tagged messages that never match.
		for i := 0; i < depth; i++ {
			if err := a.Send(dst.TID(), TagBenchFill, nil); err != nil {
				b.Fatal(err)
			}
		}
		payload := make([]byte, 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.Send(dst.TID(), TagBench, payload); err != nil {
				b.Fatal(err)
			}
			if _, err := dst.Recv(a.TID(), TagBench); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// allToAll returns a benchmark running rounds of a procs-wide all-to-all
// exchange: each endpoint sends one message to every other endpoint,
// then receives one from every other endpoint by exact source match.
// The msgs/s metric is the headline fabric-scaling number.
func allToAll(procs, rounds int) func(b *testing.B) {
	return func(b *testing.B) {
		n := netsim.New(netsim.DefaultConfig())
		defer n.Close()
		eps := make([]*netsim.Endpoint, procs)
		for i := range eps {
			eps[i] = n.NewEndpoint()
		}
		payload := make([]byte, 32)
		b.ReportAllocs()
		b.ResetTimer()
		for iter := 0; iter < b.N; iter++ {
			var wg sync.WaitGroup
			for i := range eps {
				wg.Add(1)
				go func(self int) {
					defer wg.Done()
					e := eps[self]
					for r := 0; r < rounds; r++ {
						for j := range eps {
							if j == self {
								continue
							}
							if err := e.Send(eps[j].TID(), TagBench, payload); err != nil {
								b.Error(err)
								return
							}
						}
						for j := range eps {
							if j == self {
								continue
							}
							if _, err := e.Recv(eps[j].TID(), TagBench); err != nil {
								b.Error(err)
								return
							}
						}
					}
				}(i)
			}
			wg.Wait()
		}
		b.StopTimer()
		msgs := float64(b.N) * float64(rounds) * float64(procs) * float64(procs-1)
		b.ReportMetric(msgs/b.Elapsed().Seconds(), msgsPerSec)
	}
}

// BenchmarkFanIn measures many concurrent senders feeding one receiver — the
// pattern of a SAM home directory or a recovery coordinator.
func BenchmarkFanIn(b *testing.B) {
	const senders = 32
	n := netsim.New(netsim.DefaultConfig())
	defer n.Close()
	recv := n.NewEndpoint()
	srcs := make([]*netsim.Endpoint, senders)
	for i := range srcs {
		srcs[i] = n.NewEndpoint()
	}
	payload := make([]byte, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		var wg sync.WaitGroup
		for _, e := range srcs {
			wg.Add(1)
			go func(e *netsim.Endpoint) {
				defer wg.Done()
				if err := e.Send(recv.TID(), TagBench, payload); err != nil {
					b.Error(err)
				}
			}(e)
		}
		for i := 0; i < senders; i++ {
			if _, err := recv.Recv(netsim.AnySrc, TagBench); err != nil {
				b.Fatal(err)
			}
		}
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*senders/b.Elapsed().Seconds(), msgsPerSec)
}

func BenchmarkMatchDeepQueue(b *testing.B) {
	for _, depth := range []int{16, 256, 1024} {
		b.Run(fmt.Sprintf("depth%d", depth), matchDeepQueue(depth))
	}
}

// BenchmarkAllToAll64 is the 64-process all-to-all exchange;
// BenchmarkAllToAll8 is the paper-scale (8 workstations) variant for the
// scaling comparison.
func BenchmarkAllToAll64(b *testing.B) { allToAll(64, 4)(b) }
func BenchmarkAllToAll8(b *testing.B)  { allToAll(8, 4)(b) }
