package quantiles_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/ddsketch"
	"repro/internal/kll"
	"repro/internal/sketch"
)

// concurrentBenchBufSize is the per-writer buffer used by
// BenchmarkConcurrentInsert: large enough that the KLL handoff's
// sharing clone (the level headers plus the few low levels the batch's
// compactions write) amortizes over thousands of inserts.
const concurrentBenchBufSize = 4096

// BenchmarkConcurrentInsert measures aggregate insert throughput into
// ONE logical sketch under concurrent writers; scripts/bench.sh prints
// the locked/w=N → w=N and w=1 → w=ncpu ratios from one run:
//
//   - <alg>/w=N: N goroutines, each with its own writer handle of a
//     shared sketch (the internal/concurrent path). ns/op is the
//     aggregate cost per insert — wall time divided by total inserts —
//     so halving it means doubling throughput.
//   - <alg>/w=ncpu: the same at runtime.NumCPU() writers, under a fixed
//     name so bench.sh's pair table names it on any machine.
//   - <alg>/locked/w=N: the architecture the concurrent layer replaces —
//     N goroutines sharing one serial sketch behind a mutex, every
//     insert taking the lock.
//
// The scaling story needs real cores: on a single-CPU runner w=1 vs
// w=4 is flat (there is no parallelism to exploit) and the locked/w=4
// vs w=4 pair carries the signal — buffered local appends with
// amortized handoff against a contended lock per insert.
func BenchmarkConcurrentInsert(b *testing.B) {
	vals := paretoValues(1<<20, 23)
	type alg struct {
		name     string
		mkShared func(writers int) concurrent.Shared
		builder  sketch.Builder
	}
	algs := []alg{
		{
			name: "kll",
			mkShared: func(writers int) concurrent.Shared {
				return concurrent.NewKLL(kll.DefaultK, writers, concurrentBenchBufSize)
			},
			builder: func() sketch.Sketch { return kll.New(kll.DefaultK) },
		},
		{
			name: "ddsketch",
			mkShared: func(writers int) concurrent.Shared {
				sh, err := concurrent.NewDDSketch(0.01, writers, concurrentBenchBufSize)
				if err != nil {
					b.Fatal(err)
				}
				return sh
			},
			builder: func() sketch.Sketch { return ddsketch.New(0.01) },
		},
	}
	writerCounts := []int{1, 2, 4}
	ncpu := runtime.NumCPU()
	for _, a := range algs {
		for _, wn := range writerCounts {
			b.Run(fmt.Sprintf("%s/w=%d", a.name, wn), func(b *testing.B) {
				benchSharedInsert(b, a.mkShared(wn), wn, vals)
			})
		}
		b.Run(a.name+"/w=ncpu", func(b *testing.B) {
			benchSharedInsert(b, a.mkShared(ncpu), ncpu, vals)
		})
		for _, wn := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/locked/w=%d", a.name, wn), func(b *testing.B) {
				benchLockedInsert(b, a.builder(), wn, vals)
			})
		}
	}
}

// benchSharedInsert splits b.N inserts across writers goroutines, each
// feeding its own handle, flushing at the end so the work is complete
// when the timer stops.
func benchSharedInsert(b *testing.B, sh concurrent.Shared, writers int, vals []float64) {
	per := b.N / writers
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := sh.Writer(i)
			off := i * 1013
			for j := 0; j < per; j++ {
				w.Insert(vals[(off+j)&(1<<20-1)])
			}
			w.Flush()
		}(i)
	}
	wg.Wait()
}

// benchLockedInsert is the mutex baseline: the same split of b.N
// inserts, but every insert locks the one shared serial sketch.
func benchLockedInsert(b *testing.B, sk sketch.Sketch, writers int, vals []float64) {
	per := b.N / writers
	var mu sync.Mutex
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			off := i * 1013
			for j := 0; j < per; j++ {
				v := vals[(off+j)&(1<<20-1)]
				mu.Lock()
				sk.Insert(v)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
}
