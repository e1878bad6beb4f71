package memsim

// Machine describes the modeled host. Defaults approximate the paper's
// Amazon m4.10xlarge (Xeon E5-2676 v3): see DefaultMachine.
type Machine struct {
	FreqGHz     float64 // per-core clock
	DRAMGBs     float64 // total memory bandwidth shared by all cores
	L1          CacheConfig
	L2          CacheConfig
	LLC         CacheConfig // total shared capacity; divided among threads
	MaxIPC      float64     // retired instructions per cycle when not stalled
	CallNS      float64     // fixed cost of one library call on one piece
	SimMaxElems int64       // trace scale cap (larger workloads scale down)
}

// DefaultMachine models the paper's evaluation host.
func DefaultMachine() Machine {
	return Machine{
		FreqGHz: 2.4,
		DRAMGBs: 60,
		L1:      CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8},
		L2:      CacheConfig{SizeBytes: 256 << 10, LineBytes: 64, Assoc: 8},
		LLC:     CacheConfig{SizeBytes: 30 << 20, LineBytes: 64, Assoc: 16},
		MaxIPC:  2.0,
		CallNS:  150,
		// Cap the cache-simulated trace; bigger workloads are scaled down
		// and the measured traffic ratios applied to the full size.
		SimMaxElems: 1 << 20,
	}
}

// Op is one library call in a stage: cycles per element and the arrays it
// streams. Arrays are identified by small integers; each array element is
// ElemBytes wide.
type Op struct {
	Name          string
	CyclesPerElem float64 // per element, on the executor being modeled
	Reads         []int
	Writes        []int
}

// Stage is a run of ops executed over the same elements. If BatchElems is
// zero the ops run un-pipelined: each op streams the stage's whole element
// range before the next op starts (how an unmodified library executes).
// Otherwise ops pipeline in batches of BatchElems (Mozart), or the stage is
// a single fused op (a compiler).
type Stage struct {
	Ops        []Op
	BatchElems int64
	// Elems overrides the workload element count for this stage (0 = use
	// the workload's). Used for stages over reduced data.
	Elems int64
	// ElemBytes is the width of one element of every array in this stage.
	ElemBytes int64
	// SplitCopies adds a read+write pass over each op's arrays at stage
	// entry/exit, modeling copying splitters/mergers (ImageMagick).
	SplitCopies bool
	// Scratch lists arrays that are batch-local temporaries (out-of-place
	// library results that die within the pipeline): their accesses wrap
	// within one batch's footprint, so they stay cache resident instead of
	// streaming.
	Scratch []int
}

// Workload is the full plan to simulate.
type Workload struct {
	Name   string
	Elems  int64 // elements per array
	Stages []Stage
}

// StageCounters are the simulated hardware counters of one workload stage:
// per-level cache hits and misses from the representative thread's access
// trace, plus the full-size, all-thread DRAM traffic and the stage's modeled
// runtime. They are the per-stage analogue of the Table 4 columns; a real
// plan IR reaches them through planlower.SimulateCounters.
type StageCounters struct {
	L1Hits    int64   `json:"l1_hits"`
	L1Misses  int64   `json:"l1_misses"`
	L2Hits    int64   `json:"l2_hits"`
	L2Misses  int64   `json:"l2_misses"`
	LLCHits   int64   `json:"llc_hits"`
	LLCMisses int64   `json:"llc_misses"`
	DRAMBytes int64   `json:"dram_bytes"` // full size, all threads
	Seconds   float64 `json:"seconds"`    // modeled stage runtime
}

// LLCMissRate returns LLC misses over LLC accesses (0 when idle).
func (c StageCounters) LLCMissRate() float64 {
	if acc := c.LLCHits + c.LLCMisses; acc > 0 {
		return float64(c.LLCMisses) / float64(acc)
	}
	return 0
}

// Result reports the modeled execution.
type Result struct {
	Seconds        float64
	ComputeSeconds float64
	MemorySeconds  float64
	OverheadSecs   float64
	DRAMBytes      int64 // total, all threads
	LLCMissRate    float64
	LLCAccesses    int64
	IPC            float64
	Instructions   float64
	Cycles         float64
	// PerStage holds one counter set per workload stage, in stage order.
	PerStage []StageCounters
}

// MemoryBound reports whether the modeled run was limited by DRAM
// bandwidth rather than compute.
func (r Result) MemoryBound() bool { return r.MemorySeconds > r.ComputeSeconds }

// Run executes the workload's access trace on the machine model with the
// given thread count and returns modeled time and counters.
//
// The trace is simulated for a single representative thread over
// Elems/threads elements (threads execute disjoint contiguous ranges of
// the same plan), against a hierarchy whose LLC is the thread's 1/threads
// share of the shared cache. Per-thread DRAM traffic is scaled by the
// thread count and charged against the shared bandwidth; per-thread cycles
// are charged against one core. Stage time is the roofline maximum of the
// two, plus per-call fixed overheads.
func Run(m Machine, w Workload, threads int) Result {
	if threads < 1 {
		threads = 1
	}
	var res Result
	var llcAccTotal, llcMissTotal int64
	for _, st := range w.Stages {
		stElems := st.Elems
		if stElems == 0 {
			stElems = w.Elems
		}
		elemBytes := st.ElemBytes
		if elemBytes == 0 {
			elemBytes = 8
		}
		perThread := stElems / int64(threads)
		if perThread < 1 {
			perThread = 1
		}

		// Scale the trace down if necessary, keeping the batch:data and
		// cache:data ratios meaningful by scaling the batch too.
		simElems := perThread
		scale := 1.0
		if m.SimMaxElems > 0 && simElems > m.SimMaxElems {
			scale = float64(perThread) / float64(m.SimMaxElems)
			simElems = m.SimMaxElems
		}
		batch := st.BatchElems
		if batch <= 0 || batch > perThread {
			batch = perThread
		}
		simBatch := int64(float64(batch) / scale)
		if simBatch < 1 {
			simBatch = 1
		}

		// The per-thread hierarchy: private L1/L2, a 1/threads share of the
		// LLC, with every level scaled by the trace's scale factor so the
		// cache:data and batch:cache ratios of the full-size run are
		// preserved.
		shrink := func(c CacheConfig, f float64) CacheConfig {
			c.SizeBytes = int64(float64(c.SizeBytes) / f)
			if min := c.LineBytes * int64(c.Assoc); c.SizeBytes < min {
				c.SizeBytes = min
			}
			return c
		}
		h := NewHierarchy(shrink(m.L1, scale), shrink(m.L2, scale),
			shrink(m.LLC, scale*float64(threads)))

		dramBefore := h.DRAMBytes
		calls := int64(0)

		scratch := map[int]bool{}
		for _, a := range st.Scratch {
			scratch[a] = true
		}
		wrap := simBatch * elemBytes

		// Trace: for each batch, each op streams its arrays' batch range.
		for lo := int64(0); lo < simElems; lo += simBatch {
			hi := lo + simBatch
			if hi > simElems {
				hi = simElems
			}
			for _, op := range st.Ops {
				calls++
				touch := func(arr int) {
					base := uint64(arr+1) << 40
					for b := lo * elemBytes; b < hi*elemBytes; b += h.line {
						off := b
						if scratch[arr] && wrap > 0 {
							off = b % wrap
						}
						h.Access(base + uint64(off))
					}
				}
				for _, a := range op.Reads {
					touch(a)
				}
				for _, a := range op.Writes {
					touch(a)
				}
				if st.SplitCopies {
					// Copying splitter/merger: one extra read+write
					// stream per array touched.
					for _, a := range op.Reads {
						touch(a)
					}
					for _, a := range op.Writes {
						touch(a)
					}
				}
			}
		}

		// Scale measured traffic back to full size and all threads.
		dramPerThread := float64(h.DRAMBytes-dramBefore) * scale
		dramTotal := dramPerThread * float64(threads)

		var cycles float64
		for _, op := range st.Ops {
			c := op.CyclesPerElem
			if st.SplitCopies {
				c += 1.0 // copy cost per element
			}
			cycles += c * float64(perThread)
		}
		computeSecs := cycles / (m.FreqGHz * 1e9)
		memSecs := dramTotal / (m.DRAMGBs * 1e9)
		overhead := float64(calls) * scale * m.CallNS * 1e-9

		// Roofline: compute overlaps memory; per-call dispatch overhead
		// does not overlap with either.
		stageSecs := computeSecs
		if memSecs > stageSecs {
			stageSecs = memSecs
		}
		stageSecs += overhead

		res.Seconds += stageSecs
		res.ComputeSeconds += computeSecs
		res.MemorySeconds += memSecs
		res.OverheadSecs += overhead
		res.DRAMBytes += int64(dramTotal)
		res.LLCAccesses += h.LLC.Accesses
		llcAccTotal += h.LLC.Accesses
		llcMissTotal += h.LLC.Misses

		// Per-stage counters: hit/miss counts come from the representative
		// thread's (possibly scaled-down) trace — their ratios are the
		// meaningful signal — while DRAM bytes are scaled back to full size
		// and all threads, matching the aggregate accounting above.
		res.PerStage = append(res.PerStage, StageCounters{
			L1Hits:    h.L1.Accesses - h.L1.Misses,
			L1Misses:  h.L1.Misses,
			L2Hits:    h.L2.Accesses - h.L2.Misses,
			L2Misses:  h.L2.Misses,
			LLCHits:   h.LLC.Accesses - h.LLC.Misses,
			LLCMisses: h.LLC.Misses,
			DRAMBytes: int64(dramTotal),
			Seconds:   stageSecs,
		})

		// Instruction model: MaxIPC instructions per modeled cycle.
		res.Instructions += cycles * m.MaxIPC
		res.Cycles += stageSecs * m.FreqGHz * 1e9
	}

	if llcAccTotal > 0 {
		res.LLCMissRate = float64(llcMissTotal) / float64(llcAccTotal)
	}
	if res.Cycles > 0 {
		res.IPC = res.Instructions / res.Cycles
	}
	return res
}
