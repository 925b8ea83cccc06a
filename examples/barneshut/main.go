// Runs the paper's Barnes-Hut application (hierarchical n-body) on a
// simulated 4-workstation cluster with fault tolerance, printing each step
// the tree mass (a conservation check) and the digest of the body state,
// then the FT statistics — note the much higher checkpoint rate than
// GPS/Water, reproducing the paper's fine-grain overhead result.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"samft/internal/apps/barnes"
	"samft/internal/cluster"
	"samft/internal/ft"
	"samft/internal/sam"
)

func main() {
	params := barnes.DefaultParams()
	params.Bodies = 512
	params.Steps = 4

	const n = 4
	var mu sync.Mutex
	masses, digests := map[int64]float64{}, map[int64]float64{}
	c := cluster.New(cluster.Config{
		N:      n,
		Policy: ft.PolicySAM,
		AppFactory: func(rank int) sam.App {
			a := barnes.New(rank, n, params)
			if rank == 0 {
				a.OnStep = func(step int64, m, d float64) {
					mu.Lock()
					masses[step], digests[step] = m, d
					mu.Unlock()
				}
			}
			return a
		},
	})
	rep, err := c.Run(2 * time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	for s := int64(1); s <= params.Steps; s++ {
		fmt.Printf("step %d: tree mass %.6f (want ~1), body digest %v\n", s, masses[s], digests[s])
	}
	fmt.Printf("stats: %s\n", rep)
}
