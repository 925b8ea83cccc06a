// Demonstrates transparent recovery: a 4-workstation GPS run in which one
// workstation is killed mid-computation. The run completes with the same
// answer as a failure-free run; only the failed process was restarted.
// The killed run records a virtual-time trace, and the demo ends with its
// phase-decomposed recovery timeline.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"samft/internal/apps/gps"
	"samft/internal/cluster"
	"samft/internal/ft"
	"samft/internal/sam"
	"samft/internal/trace"
)

func run(kill bool, tracer *trace.Tracer) (best float64, recoveries int64) {
	params := gps.DefaultParams()
	params.Population = 120
	params.Generations = 6

	const n = 4
	res := make(chan float64, 8)
	var kills []cluster.KillEvent
	if kill {
		fmt.Println("!! the workstation of rank 2 will fail at step 3")
		kills = []cluster.KillEvent{{Rank: 2, Step: 3}}
	}
	cl := cluster.New(cluster.Config{
		N:      n,
		Policy: ft.PolicySAM,
		Tracer: tracer,
		Kills:  kills,
		AppFactory: func(rank int) sam.App {
			a := gps.New(rank, n, params)
			if rank == 0 {
				a.OnResult = func(v float64) {
					select {
					case res <- v:
					default:
					}
				}
			}
			return a
		},
	})
	if _, err := cl.Run(2 * time.Minute); err != nil {
		log.Fatal(err)
	}
	for r := 0; r < n; r++ {
		recoveries += cl.ProcStats(r).Recoveries.Load()
	}
	return <-res, recoveries
}

func main() {
	clean, _ := run(false, nil)
	fmt.Printf("failure-free best RMS error: %.4f\n", clean)
	tracer := trace.New(0)
	killed, recoveries := run(true, tracer)
	fmt.Printf("with mid-run kill:           %.4f (recoveries: %d)\n", killed, recoveries)
	if clean == killed {
		fmt.Println("identical results: recovery was transparent")
	} else {
		fmt.Println("MISMATCH: recovery changed the answer")
	}
	fmt.Println("\nwhat recovery spent its time on (virtual-time trace):")
	trace.AnalyzeRecovery(tracer).Fprint(os.Stdout)
}
