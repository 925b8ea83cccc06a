// Quickstart: the Figure-1 idioms of the paper expressed against this
// library's SAM API — mutual exclusion through an accumulator,
// producer/consumer synchronization through a single-assignment value,
// and bounded buffering through value renaming — run on a simulated
// 2-workstation cluster with fault tolerance enabled.
package main

import (
	"fmt"
	"log"
	"time"

	"samft/internal/cluster"
	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/sam"
)

type Counter struct{ Hits int64 }
type Message struct{ Text string }
type Buffer struct{ Items []int64 }
type state struct{ X int64 }

func init() {
	codec.Register("qs.Counter", Counter{})
	codec.Register("qs.Message", Message{})
	codec.Register("qs.Buffer", Buffer{})
	codec.Register("qs.state", state{})
}

var (
	counter = sam.MkName(1, 0, 0)
	note    = sam.MkName(2, 0, 0)
)

func buf(round int64) sam.Name { return sam.MkName(3, int(round), 0) }

type app struct {
	rank int
	st   state
}

func (a *app) Init(p *sam.Proc) {
	if a.rank == 0 {
		// Idiom 1 (mutual exclusion): an accumulator holds data updated by
		// several processes; SAM migrates it and serializes the updates.
		p.CreateAccum(counter, &Counter{})
		// Idiom 3 setup (bounded buffer via renaming).
		p.CreateValue(buf(0), &Buffer{Items: []int64{0}}, 1)
	}
}

func (a *app) Step(p *sam.Proc, step int64) bool {
	switch step {
	case 1:
		// Both processes update the shared counter under mutual exclusion.
		c := p.UpdateAccum(counter).(*Counter)
		c.Hits++
		p.ReleaseAccum(counter)
		return true
	case 2:
		if a.rank == 0 {
			// Idiom 2 (producer/consumer): create a value; the consumer's
			// access blocks until it exists, then is served from its cache.
			p.CreateValue(note, &Message{Text: "hello from the producer"}, 1)
		} else {
			m := p.UseValue(note).(*Message)
			fmt.Printf("rank 1 consumed: %q\n", m.Text)
			p.DoneValue(note)
		}
		return true
	case 3, 4, 5:
		// Idiom 3 (storage reuse): each round the consumer reads the
		// current buffer while the producer renames it into the next
		// round's buffer once that read has completed — the paper's
		// bounded-buffer synchronization.
		round := step - 2
		if a.rank == 0 {
			b := p.RenameValue(buf(round-1), buf(round)).(*Buffer)
			b.Items = append(b.Items, round)
			p.CreateRenamed(buf(round), b, 1)
		} else {
			b := p.UseValue(buf(round - 1)).(*Buffer)
			if round == 3 {
				fmt.Printf("rank 1 sees buffer rounds: %v\n", b.Items)
			}
			p.DoneValue(buf(round - 1))
		}
		return true
	case 6:
		if a.rank == 0 {
			c := p.UpdateAccum(counter).(*Counter)
			fmt.Printf("total hits: %d (want 2)\n", c.Hits)
			p.ReleaseAccum(counter)
		}
		return true
	default:
		return false
	}
}

func (a *app) Snapshot() interface{} { return &a.st }
func (a *app) Restore(s interface{}) { a.st = *(s.(*state)) }

func main() {
	c := cluster.New(cluster.Config{
		N:      2,
		Policy: ft.PolicySAM,
		AppFactory: func(rank int) sam.App {
			return &app{rank: rank}
		},
	})
	rep, err := c.Run(30 * time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done; %s\n", rep)
}
