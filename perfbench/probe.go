package main

import "time"

// probeBuf is the probe's input: 32 KiB, so it stays in the L1 cache.
var probeBuf = func() []float64 {
	b := make([]float64, 4096)
	for i := range b {
		b[i] = float64(i) * 1e-3
	}
	return b
}()

// probeSink keeps the compiler from removing the probe's arithmetic.
var probeSink float64

// probe times a fixed floating-point loop of about 0.2 ms that shares no
// code with the program under test. It reads how fast the core runs at
// the moment: on a shared host its time about doubles while other work
// runs on the same physical core, which slows a packet about 1.4 times.
func probe() time.Duration {
	t0 := time.Now()
	var acc [8]float64
	for range 60 {
		for i := 0; i+len(acc) <= len(probeBuf); i += len(acc) {
			for j := range acc {
				acc[j] = acc[j]*0.9999 + probeBuf[i+j]*1.0001
			}
		}
	}
	probeSink = acc[0] + acc[len(acc)-1]
	return time.Since(t0)
}
