package main

// The request schedule: everything the workload seed decides — which
// test rows each model is fed, when open-loop requests are due, how
// closed-loop batches are composed and when models are hot-swapped. The
// system under test only ever sees the generated inputs.

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math/rand/v2"
	"time"
)

// maxCallers bounds closed-loop callers and HTTP client connections.
const maxCallers = 2

// swapPeriod is the spacing of hot swaps within a phase: four a second,
// so a run's swap-time percentiles rest on dozens of swaps.
const swapPeriod = 250 * time.Millisecond

// request is one open-loop arrival.
type request struct {
	at    time.Duration // due time, from the phase start
	model uint8         // index into the workload's traffic list
	row   uint16        // index into the model's row pool
}

// batch is one closed-loop call.
type batch struct {
	model uint8
	rows  []uint16
}

// schedule is one phase's worth of generated inputs.
type schedule struct {
	pools   [3][]int // per dataset, a seeded permutation of its test rows
	open    []request
	batches [maxCallers][]batch // each caller cycles through its list
	swaps   []time.Duration     // swap start times, from the phase start
}

// testLens are the test-split sizes of the three datasets, in dataset
// order (Iris, WBC, Mushroom).
type testLens [3]int

// newSchedule generates the schedule for one phase of length d.
func newSchedule(w *workload, seed uint64, d time.Duration, lens testLens) *schedule {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	s := &schedule{}
	for ds, n := range lens {
		s.pools[ds] = r.Perm(n)
	}
	poolOf := func(m int) int { return len(s.pools[w.traffic[m].ds]) }

	if w.rate > 0 {
		mean := float64(time.Second) / w.rate
		for at := time.Duration(r.ExpFloat64() * mean); at < d; at += time.Duration(r.ExpFloat64() * mean) {
			m := r.IntN(len(w.traffic))
			s.open = append(s.open, request{at: at, model: uint8(m), row: uint16(r.IntN(poolOf(m)))})
		}
	} else {
		for c := range s.batches {
			for rep := 0; rep < w.cycles; rep++ {
				for m := range w.traffic {
					for _, b := range w.batchSizes {
						for k := 0; k < w.batchesPer(b); k++ {
							rows := make([]uint16, b)
							for i := range rows {
								rows[i] = uint16(r.IntN(poolOf(m)))
							}
							s.batches[c] = append(s.batches[c], batch{model: uint8(m), rows: rows})
						}
					}
				}
			}
		}
	}

	for k := 0; ; k++ {
		at := swapPeriod/2 + time.Duration(k)*swapPeriod + time.Duration(r.Int64N(int64(swapPeriod/4)))
		if at > d-swapPeriod/4 {
			break
		}
		s.swaps = append(s.swaps, at)
	}
	return s
}

// digest is the SHA-256 of the schedule's canonical encoding: two runs
// fed identical inputs at identical times have equal digests.
func (s *schedule) digest() [sha256.Size]byte {
	h := sha256.New()
	put := func(h hash.Hash, v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, p := range s.pools {
		put(h, uint64(len(p)))
		for _, i := range p {
			put(h, uint64(i))
		}
	}
	put(h, uint64(len(s.open)))
	for _, q := range s.open {
		put(h, uint64(q.at))
		put(h, uint64(q.model)<<16|uint64(q.row))
	}
	for _, bs := range s.batches {
		put(h, uint64(len(bs)))
		for _, b := range bs {
			put(h, uint64(b.model)<<32|uint64(len(b.rows)))
			for _, row := range b.rows {
				put(h, uint64(row))
			}
		}
	}
	put(h, uint64(len(s.swaps)))
	for _, at := range s.swaps {
		put(h, uint64(at))
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
