package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/fp16"
	"repro/internal/mem"
	"repro/internal/servecache"
	"repro/internal/tcore"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// The layer probes time calls into one layer's exported functions over
// seeded inputs, out of band: what a single coalescer call, bank-conflict
// classification, cache access, warp-level MMA or cache Get costs on its
// own. They run in the traced run of every workload, so a layer's probe
// can be read beside the workload it should (or should not) move.

// timeOp returns the median, over batches, of ns per call of f. The
// calls' results are summed and kept alive so none can be optimised away.
func timeOp(batches, calls int, f func(i int) uint64) float64 {
	per := make([]float64, batches)
	var sum uint64
	for b := range per {
		begin := time.Now()
		for i := 0; i < calls; i++ {
			sum += f(i)
		}
		per[b] = float64(time.Since(begin).Nanoseconds()) / float64(calls)
	}
	runtime.KeepAlive(sum)
	return median(per)
}

// addrSets builds n warp address vectors of one geometry class.
func addrSets(n int, lane func(set, lane int) uint64) [][32]uint64 {
	sets := make([][32]uint64, n)
	for s := range sets {
		for l := 0; l < 32; l++ {
			sets[s][l] = lane(s, l)
		}
	}
	return sets
}

func vec(a *[32]uint64) []mem.AddrVec {
	return []mem.AddrVec{{Addr: a, Mask: ^uint32(0), Bits: 32}}
}

// runProbes measures every layer probe once and returns the metrics.
func runProbes(rc runConfig, tr *tracer) metrics {
	rng := rand.New(rand.NewSource(rc.seed ^ 0x70726f6265)) // "probe"
	batches, scale := 5, 1
	if rc.tiny {
		batches, scale = 1, 50
	}
	m := metrics{}
	id := tr.start("probe.mem", "probes", 0)
	memProbes(m, rng, batches, scale)
	tr.end(id)
	id = tr.start("probe.wmma", "probes", 0)
	wmmaProbes(m, rng, batches, scale)
	tr.end(id)
	id = tr.start("probe.servecache", "probes", 0)
	servecacheProbes(m, rng, rc.procs, scale)
	tr.end(id)
	return m
}

func memProbes(m metrics, rng *rand.Rand, batches, scale int) {
	cfg := mem.TitanV()
	const sets = 64
	bases := make([]uint64, sets)
	for i := range bases {
		bases[i] = uint64(rng.Intn(1<<20)) * 128
	}
	classes := []struct {
		name string
		sets [][32]uint64
	}{
		{"uniform", addrSets(sets, func(s, _ int) uint64 { return bases[s] })},
		{"unit", addrSets(sets, func(s, l int) uint64 { return bases[s] + 4*uint64(l) })},
		{"sorted", func() [][32]uint64 {
			// Ascending with seeded gaps of 1–16 words.
			var at uint64
			return addrSets(sets, func(s, l int) uint64 {
				if l == 0 {
					at = bases[s]
				}
				at += 4 * uint64(1+rng.Intn(16))
				return at
			})
		}()},
		{"scattered", addrSets(sets, func(int, int) uint64 { return 4 * uint64(rng.Intn(1<<26)) })},
	}
	for _, c := range classes {
		m["mem.coalesce_ns."+c.name] = timeOp(batches, 40000/scale, func(i int) uint64 {
			return uint64(len(mem.CoalesceVecs(cfg, vec(&c.sets[i%sets]))))
		})
	}

	// Shared-memory words at lane stride 1, 2 and 32 from a seeded base.
	for _, b := range []struct {
		name   string
		stride uint64
	}{{"free", 1}, {"way2", 2}, {"way32", 32}} {
		ss := addrSets(sets, func(s, l int) uint64 { return bases[s]%4096 + 4*b.stride*uint64(l) })
		m["mem.bank_ns."+b.name] = timeOp(batches, 40000/scale, func(i int) uint64 {
			return uint64(mem.SharedConflictPassesVecs(cfg, vec(&ss[i%sets])))
		})
	}

	for _, name := range []string{"unit", "scattered"} {
		var ss [][32]uint64
		for _, c := range classes {
			if c.name == name {
				ss = c.sets
			}
		}
		port := mem.NewSystem(cfg).NewSMPort()
		var now uint64
		m["mem.port_global_ns."+name] = timeOp(batches, 20000/scale, func(i int) uint64 {
			now = port.AccessGlobalVecs(now, vec(&ss[i%sets]))
			return now
		})
	}

	// Working set four times the L1 capacity: mostly misses with fills.
	cache := mem.NewCache(cfg.L1SizeBytes, cfg.L1LineBytes, cfg.L1Ways, cfg.SectorBytes)
	addrs := make([]uint64, 1<<14)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(4*cfg.L1SizeBytes/cfg.SectorBytes)) * uint64(cfg.SectorBytes)
	}
	m["mem.cache_access_ns"] = timeOp(batches, 200000/scale, func(i int) uint64 {
		if cache.Access(addrs[i%len(addrs)]) {
			return 1
		}
		return 0
	})
}

func wmmaProbes(m metrics, rng *rand.Rand, batches, scale int) {
	tile := func() *tensor.Matrix {
		t := tensor.New(16, 16, tensor.RowMajor)
		t.FillRandomFP16(rng)
		return t
	}
	a, b, c, d := tile(), tile(), tile(), tile()
	mixed := wmma.Config{Arch: wmma.Volta, Shape: wmma.M16N16K16,
		ALayout: tensor.RowMajor, BLayout: tensor.RowMajor,
		AType: wmma.F16, CType: wmma.F32, DType: wmma.F32}
	half := mixed
	half.CType, half.DType = wmma.F16, wmma.F16
	// The configurations are fixed and valid, so an error below is a bug.
	for _, p := range []struct {
		name string
		cfg  wmma.Config
	}{{"mixed", mixed}, {"fp16", half}} {
		buf := make([]fp16.Float16, wmma.QuantBufLen(p.cfg))
		m["wmma.mma_ns."+p.name] = timeOp(batches, 2000/scale, func(int) uint64 {
			if err := wmma.MMAIntoBuf(p.cfg, a, b, c, d, buf); err != nil {
				panic(err)
			}
			return 0
		})
	}
	m["tcore.exec_volta_us"] = timeOp(batches, 400/scale, func(int) uint64 {
		out, err := tcore.ExecuteVolta(mixed, a, b, c, tensor.RowMajor)
		if err != nil {
			panic(err)
		}
		return uint64(out.Rows)
	}) / 1e3
	m["wmma.map_us"] = timeOp(batches, 400/scale, func(int) uint64 {
		mp, err := wmma.Map(wmma.Volta, wmma.M16N16K16, wmma.MatrixA, tensor.RowMajor, wmma.F16)
		if err != nil {
			panic(err)
		}
		return uint64(mp.SlotVecs().Slots)
	}) / 1e3

	vals := make([]float32, 4096)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	m["fp16.conv_ns"] = timeOp(batches, 400000/scale, func(i int) uint64 {
		return uint64(fp16.FromFloat32(vals[i%len(vals)]).Float32())
	})
}

// servecacheProbes times Get and Put of 2 KiB payloads from procs
// goroutines at once, the way request handlers reach the cache.
func servecacheProbes(m metrics, rng *rand.Rand, procs, scale int) {
	const keys = 512
	payload := make([]byte, 2048)
	rng.Read(payload)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("%016x", rng.Uint64())
	}
	perG := 100000 / scale
	parallel := func(f func(i int)) float64 {
		var wg sync.WaitGroup
		begin := time.Now()
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					f(g*perG + i)
				}
			}()
		}
		wg.Wait()
		return float64(time.Since(begin).Nanoseconds()) / float64(perG*procs)
	}
	// Budget for half the keys, so Put evicts as it goes.
	cache := servecache.New(int64(keys / 2 * len(payload)))
	m["servecache.put_ns"] = parallel(func(i int) { cache.Put(names[i%keys], payload) })
	m["servecache.get_ns"] = parallel(func(i int) { cache.Get(names[i%keys]) })
}
