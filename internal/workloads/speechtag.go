package workloads

import (
	"mozart/internal/annotations/nlpsa"
	"mozart/internal/core"
	"mozart/internal/data"
	"mozart/internal/memsim"
	"mozart/internal/nlp"
)

// Speech Tag (Figure 4i): part-of-speech tagging and feature extraction
// over a review corpus. The corpus split type parallelizes the tagger's
// minibatches; speedups come almost entirely from parallelization (the
// paper notes no compilers supported spaCy).

const stOperators = 2

func stChecksum(counts map[string]int64) float64 {
	sum := 0.0
	for pos, n := range counts {
		sum += float64(len(pos)) * float64(n)
	}
	return sum
}

func prepareSpeechTag(cfg Config) (*Program, error) {
	corpus := data.ReviewCorpus(cfg.Scale, 91)
	tagger := nlp.NewTagger()
	return &Program{cfg: cfg,
		pipeline: func(s *core.Session) (float64, error) {
			docs := nlpsa.Pipe(s, tagger, corpus) // 1
			counts := nlpsa.POSCounts(s, docs)    // 2
			cv, err := counts.Get()
			if err != nil {
				return 0, err
			}
			return stChecksum(cv.(map[string]int64)), nil
		},
	}, nil
}

func stModel(v Variant, cfg Config) *memsim.Workload {
	// Tagging is compute bound: hundreds of cycles per document token;
	// one "element" is a document of ~60 tokens (~400 bytes of text).
	ops := []opSpec{
		{name: "pipe", cycles: 6000, weldC: 6000, reads: []int{0}, writes: []int{1}},
		{name: "posCounts", cycles: 400, weldC: 400, reads: []int{1}, writes: nil},
	}
	return chainModelAlloc("speechtag", ops, int64(cfg.Scale), 400, v, cfg.Batch)
}

func init() {
	register(Spec{
		Name:         "speechtag-spacy",
		Library:      "spaCy",
		Description:  "POS tagging and feature extraction over a review corpus (Fig. 4i)",
		Operators:    stOperators,
		Variants:     []Variant{Base, Mozart, MozartNoPipe},
		Prepare:      prepareSpeechTag,
		DefaultScale: 1 << 13,
		Model:        stModel,
	})
}
