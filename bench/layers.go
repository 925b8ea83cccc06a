package main

import (
	"fmt"
	"time"

	"samft/internal/apps/barnes"
	"samft/internal/apps/gps"
	"samft/internal/apps/water"
	"samft/internal/ckptstore"
	"samft/internal/cluster"
	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/sam"
	"samft/internal/scenario"
	"samft/internal/xrand"
)

// driverSeed seeds the layer drivers' inputs. They are the same on every
// run: the drivers time fixed operations, -seed varies only the app
// workloads.
const driverSeed = 1996

// codecObjects builds one paper-sized instance of the object each
// application ships most: Water's whole-system frame (1728 molecules),
// one rank's Barnes-Hut partition at 8 procs (1000 bodies), and a GPS
// migrant shard (top-4 trees of depth <= 7).
func codecObjects() []struct {
	name string
	obj  interface{}
} {
	r := xrand.New(driverSeed)
	vec := func() water.Vec { return water.Vec{X: r.Float64(), Y: r.Float64(), Z: r.Float64()} }
	frame := &water.Frame{Step: 1, Pos: make([]water.Vec, 1728), Vel: make([]water.Vec, 1728)}
	for i := range frame.Pos {
		frame.Pos[i], frame.Vel[i] = vec(), vec()
	}
	part := &barnes.Partition{Rank: 3, Step: 1, Lo: 3000, Hi: 4000, Bodies: make([]barnes.Body, 1000)}
	for i := range part.Bodies {
		part.Bodies[i] = barnes.Body{
			Pos:  [3]float64{r.Float64(), r.Float64(), r.Float64()},
			Vel:  [3]float64{r.Float64(), r.Float64(), r.Float64()},
			Mass: r.Float64(),
		}
	}
	gp := gps.DefaultParams()
	shard := &gps.Shard{Rank: 3, Gen: 1, Tops: make([]gps.Individual, gp.TopK)}
	for i := range shard.Tops {
		shard.Tops[i] = gps.Individual{Tree: gps.RandomTree(r, gps.NVars, gp.MaxDepth), Fitness: r.Float64()}
	}
	return []struct {
		name string
		obj  interface{}
	}{{"water_frame", frame}, {"barnes_partition", part}, {"gps_shard", shard}}
}

// codecDrivers times pack, unpack and deep copy of each codec object,
// per packed kilobyte so the three objects compare.
func codecDrivers(samples int, add addFunc) {
	for _, o := range codecObjects() {
		frame, err := codec.Pack(o.obj)
		must(err)
		kb := float64(len(frame)) / 1024
		ops := 1 + int(512/kb) // ~0.5 MB of frames per sample
		perKB := func(f func()) []float64 {
			f() // warm the encoder/decoder pools
			ns := timeOps(samples, ops, func() {
				for i := 0; i < ops; i++ {
					f()
				}
			})
			for i := range ns {
				ns[i] /= kb
			}
			return ns
		}
		obj := o.obj
		add("codec.pack_ns_per_kb."+o.name, perKB(func() {
			_, err := codec.Pack(obj)
			must(err)
		}))
		add("codec.unpack_ns_per_kb."+o.name, perKB(func() {
			_, err := codec.Unpack(frame)
			must(err)
		}))
		add("codec.deepcopy_ns_per_kb."+o.name, perKB(func() {
			_, err := codec.DeepCopy(obj)
			must(err)
		}))
		add("codec.packed_bytes."+o.name, []float64{float64(len(frame))})
	}
}

// ftDrivers times one piggyback round trip (DeltaStampFor on the sender,
// AbsorbDelta on the receiver) between random pairs of n processes that
// each tick before sending, and counts the vector entries a stamp
// carries once first-contact full vectors are out of the way.
func ftDrivers(samples int, add addFunc) {
	const ops = 10000
	for _, n := range []int{8, 64} {
		clocks := make([]*ft.Clocks, n)
		for i := range clocks {
			clocks[i] = ft.NewClocks(i, n)
		}
		r := xrand.New(driverSeed)
		var entries, stamps float64
		exchange := func() {
			for i := 0; i < ops; i++ {
				src := r.Intn(n)
				dst := (src + 1 + r.Intn(n-1)) % n
				clocks[src].Tick()
				s := clocks[src].DeltaStampFor(dst)
				entries += float64(len(s.Full) + len(s.Idx))
				clocks[dst].AbsorbDelta(s)
			}
			stamps += ops
		}
		exchange() // every pair has met: steady-state deltas from here on
		entries, stamps = 0, 0
		add(fmt.Sprintf("ft.delta_stamp_ns.n%d", n), timeOps(samples, ops, exchange))
		add(fmt.Sprintf("ft.delta_stamp_entries.n%d", n), []float64{entries / stamps})
	}
}

// ckptstoreDrivers times holder planning under each placement policy
// (8 ranks, degree 2) and the Reed-Solomon coder on a 64 KB frame.
func ckptstoreDrivers(samples int, add addFunc) {
	const ops = 10000
	cached := []int{1, 5, 6}
	view := ckptstore.View{N: 8, CachedAt: func(uint64) []int { return cached }}
	for _, kind := range []ckptstore.Kind{ckptstore.Ring, ckptstore.Spread, ckptstore.Affinity} {
		st := ckptstore.NewStore(ckptstore.Config{Rank: 0, N: 8, Degree: 2, Policy: kind, View: view})
		add("ckptstore.plan_ns."+kind.String(), timeOps(samples, ops, func() {
			for i := 0; i < ops; i++ {
				if len(st.Plan(uint64(i), 0)) != 2 {
					panic("ckptstore: Plan returned the wrong holder count")
				}
			}
		}))
	}

	ec := ckptstore.ECParams{K: 2, M: 1}
	frame := make([]byte, 64<<10)
	r := xrand.New(driverSeed)
	for i := range frame {
		frame[i] = byte(r.Uint64())
	}
	const ecOps = 20
	mbPerS := func(f func()) []float64 {
		ns := timeOps(samples, ecOps, func() {
			for i := 0; i < ecOps; i++ {
				f()
			}
		})
		for i := range ns {
			ns[i] = float64(len(frame)) / 1e6 / (ns[i] / 1e9)
		}
		return ns
	}
	shards, err := ckptstore.Encode(ec, frame)
	must(err)
	add("ckptstore.ec_encode_mb_per_s", mbPerS(func() {
		_, err := ckptstore.Encode(ec, frame)
		must(err)
	}))
	// Decode with the first data shard lost, so parity is really used.
	lost := [][]byte{nil, shards[1], shards[2]}
	add("ckptstore.ec_decode_mb_per_s", mbPerS(func() {
		out, err := ckptstore.Decode(ec, lost, len(frame))
		must(err)
		if out[0] != frame[0] {
			panic("ckptstore: Decode returned the wrong frame")
		}
	}))
}

// EmptyState is the private state of the no-op application.
type EmptyState struct{ Step int64 }

func init() { codec.Register("bench.EmptyState", EmptyState{}) }

// noopApp finishes in its first step: a cluster running it measures
// boot, the initial checkpoint and halt, and nothing else.
type noopApp struct{ st EmptyState }

func (a *noopApp) Init(*sam.Proc)             {}
func (a *noopApp) Step(*sam.Proc, int64) bool { return false }
func (a *noopApp) Snapshot() interface{}      { return &a.st }
func (a *noopApp) Restore(s interface{})      { a.st = *(s.(*EmptyState)) }

// clusterDrivers times boot-to-halt of an 8-process cluster that has no
// application work: the fixed host cost every run pays.
func clusterDrivers(samples int, add addFunc) {
	ms := timeOps(2*samples, 1, func() {
		cl := cluster.New(cluster.Config{
			N: 8, Policy: ft.PolicySAM, Degree: 1,
			AppFactory: func(int) sam.App { return &noopApp{} },
		})
		_, err := cl.Run(watchdog)
		must(err)
	})
	for i := range ms {
		ms[i] /= 1e6
	}
	add("cluster.empty_run_ms", ms)
}

// scenarioDrivers times loading, validating and compiling a workload
// file: the part of setup_s that is not warm-up runs.
func scenarioDrivers(samples int, file string, add addFunc) {
	us := timeOps(3*samples, 1, func() {
		s, err := scenario.LoadFile(file)
		must(err)
		scenario.Compile(s, file)
	})
	for i := range us {
		us[i] /= 1000
	}
	add("scenario.load_compile_us", us)
}

// watchdog is the host-time limit of one run: past it the run is failed
// and the workload ends, instead of waiting out experiments.Run's own
// ten-minute timeout.
const watchdog = 60 * time.Second
