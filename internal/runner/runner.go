// Package runner executes independent experiment runs across a worker
// pool. Every run of the paper's evaluation (one protocol variant on one
// seeded scenario) is fully self-contained — the simulator derives all
// of its RNG streams from the scenario seed — so runs can fan out across
// GOMAXPROCS workers while the collected results, and therefore every
// regenerated table, stay byte-identical to a serial loop.
//
// The package also owns per-run seed derivation: replicated runs obtain
// independent RNG streams via DeriveSeed(base, label, replicate), a
// stable hash, instead of ad-hoc seed arithmetic scattered across
// experiments.
package runner

import (
	"context"
	"runtime"
	"sync"
)

// Workers resolves a requested worker count: values <= 0 mean "use the
// machine" (GOMAXPROCS); anything positive is taken as-is. A value of 1
// reproduces the serial execution order exactly, which is the debugging
// escape hatch behind the experiments' -j 1 flag.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(ctx, i) for every i in [0, n) on up to workers goroutines
// and returns the n results in index order, so downstream consumers see
// exactly what a serial loop would have produced. The first error wins:
// it cancels the context passed to not-yet-started calls and is returned
// after in-flight calls drain. A nil or zero result slice is returned
// alongside a non-nil error.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	if workers == 1 {
		// Serial fast path: no goroutines, deterministic even under -race.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := fn(ctx, i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r, err := fn(ctx, i)
				if err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
					continue
				}
				results[i] = r
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// DeriveSeed deterministically mixes a base scenario seed with a run
// label and a replicate index into an independent RNG stream seed:
// FNV-1a over the inputs followed by a splitmix64 finalizer so that
// consecutive replicates land far apart in seed space. Replicate 0 of
// any label always returns the base seed unchanged, keeping single-run
// experiments byte-identical to their pre-replication output.
func DeriveSeed(base uint64, label string, replicate int) uint64 {
	if replicate == 0 {
		return base
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for i := 0; i < len(label); i++ {
		mix(label[i])
	}
	for _, v := range [...]uint64{base, uint64(replicate)} {
		for s := 0; s < 64; s += 8 {
			mix(byte(v >> s))
		}
	}
	// splitmix64 finalizer: decorrelates the low bits FNV leaves similar.
	h += 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	if h == 0 {
		h = 1 // seed 0 means "use the default" in several option structs
	}
	return h
}
