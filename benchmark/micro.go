package main

import (
	"runtime"
	"time"

	"mozart/internal/core"
	"mozart/internal/data"
	"mozart/internal/spill"
)

// splitterRoundtrip times one annotation family's splitter alone: SplitView
// of 16 equal pieces into warm reuse slots, then Merge, the whole-value
// reassembly that streaming windows and fallback rebuilds perform. It
// returns nanoseconds per piece and allocations per round trip.
func splitterRoundtrip(sp core.ViewSplitter, v any, n int, st core.SplitType) (nsPerPiece, allocs float64) {
	const pieces, rounds = 16, 2000
	reuse := make([]any, pieces)
	buf := make([]any, pieces)
	per := int64(n / pieces)
	round := func() {
		for k := 0; k < pieces; k++ {
			p, err := sp.SplitView(v, st, int64(k)*per, int64(k+1)*per, reuse[k])
			if err != nil {
				panic(err) // a bug in the benchmark: the ranges are in bounds
			}
			reuse[k], buf[k] = p, p
		}
		if _, err := sp.Merge(buf, st); err != nil {
			panic(err)
		}
	}
	round() // fill the reuse slots
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		round()
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(wall.Nanoseconds()) / (rounds * pieces), float64(after.Mallocs-before.Mallocs) / rounds
}

// spillRates times the spill store alone: append then replay of 4 MiB
// frames, in MB/s of payload.
func spillRates(dir string) (appendMBps, replayMBps float64, err error) {
	const frame, frames = 4 << 20, 8
	store, err := spill.NewStore(dir)
	if err != nil {
		return 0, 0, err
	}
	defer store.Close()
	st, err := store.Stream("bench")
	if err != nil {
		return 0, 0, err
	}
	payload := make([]byte, frame)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	start := time.Now()
	for i := 0; i < frames; i++ {
		if _, err := st.Append(payload); err != nil {
			return 0, 0, err
		}
	}
	appendWall := time.Since(start)
	start = time.Now()
	if err := st.Replay(func(uint32, []byte) error { return nil }); err != nil {
		return 0, 0, err
	}
	replayWall := time.Since(start)
	mb := float64(frame*frames) / 1e6
	return mb / appendWall.Seconds(), mb / replayWall.Seconds(), nil
}

// datagenSeconds times the data.* generator a served workload calls inside
// spec.Run on every request, at the request's scale.
func datagenSeconds(workload string, scale int) float64 {
	const rounds = 20
	xs := make([]float64, rounds)
	for i := range xs {
		start := time.Now()
		switch workload {
		case "blackscholes-mkl":
			data.OptionsData(scale, 11)
		case "haversine-mkl":
			data.GPSData(scale, 21)
		case "datacleaning-pandas":
			data.ServiceRequests(scale, 51)
		}
		xs[i] = time.Since(start).Seconds()
	}
	return quantile(xs, 0.5)
}
