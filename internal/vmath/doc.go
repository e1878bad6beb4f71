// Package vmath is the repository's stand-in for Intel MKL: a hand-tuned
// vector and matrix math library over dense float64 buffers.
//
// Like MKL's vector-math (VM), L1 and L2 BLAS headers, functions take
// explicit lengths and slices, write results through an out parameter, and
// optionally parallelize internally across a configurable number of threads
// (MKL uses TBB; we use goroutines). The functions are deliberately
// black boxes: they know nothing about Mozart, which is the whole point of
// split annotations — the SAs for this library live in
// internal/annotations/vmathsa.
//
// Every elementwise kernel is one loop with its arithmetic written inline,
// most of them unrolled four ways: no kernel calls a function value per
// element, and a call allocates one object, the body closure parallelFor
// hands to its threads. BenchmarkKernels reports the per-element cost of
// each kernel on a cache-resident batch and on vectors streamed from DRAM.
// The loops are scalar Go; on real hardware MKL is SIMD vectorized, which
// is the property the paper credits for Mozart beating Weld on MKL
// workloads, and which this stand-in does not reproduce.
package vmath
