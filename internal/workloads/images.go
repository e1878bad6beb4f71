package workloads

import (
	"mozart/internal/annotations/imagesa"
	"mozart/internal/core"
	"mozart/internal/data"
	"mozart/internal/imagelib"
	"mozart/internal/memsim"
)

// Nashville and Gotham (Figure 4n-o): Instagram-style filter pipelines from
// the instagram-filters repository, expressed over the imagelib
// MagickWand-style API. Every operation is pixel-local and pipelines; the
// image split type's crop/append copies give these workloads the paper's
// split/merge overhead profile (§8.5).

// imgStep is one filter call through the annotated wrappers.
type imgStep struct {
	name  string
	call  func(s *core.Session, img any)
	cycPx float64
}

func step(name string, cyc float64, call func(*core.Session, any)) imgStep {
	return imgStep{name: name, cycPx: cyc, call: call}
}

// nashvilleSteps is the 31-call Nashville pipeline: color tone toward warm
// tints, level adjustments per channel, modulation, and gamma.
func nashvilleSteps() []imgStep {
	var steps []imgStep
	add := func(s imgStep) { steps = append(steps, s) }
	// colortone(#222b6d, negate) phase.
	add(step("colorize-blue", 1.2, func(s *core.Session, img any) { imagesa.Colorize(s, img, 0x22, 0x2b, 0x6d, 0.1) }))
	add(step("contrast-1", 1.6, func(s *core.Session, img any) { imagesa.SigmoidalContrast(s, img, true, 3, 128) }))
	add(step("gamma-down", 1.4, func(s *core.Session, img any) { imagesa.Gamma(s, img, 0.9) }))
	// colortone(#f7daae) phase.
	add(step("colorize-cream", 1.2, func(s *core.Session, img any) { imagesa.Colorize(s, img, 0xf7, 0xda, 0xae, 0.12) }))
	add(step("contrast-2", 1.6, func(s *core.Session, img any) { imagesa.SigmoidalContrast(s, img, false, 3, 128) }))
	// modulate(100, 150, 100).
	add(step("modulate", 5, func(s *core.Session, img any) { imagesa.Modulate(s, img, 100, 150, 100) }))
	// auto-gamma/level passes per channel.
	for ch := 0; ch < 3; ch++ {
		ch := ch
		add(step("channel-up", 0.8, func(s *core.Session, img any) { imagesa.ChannelScale(s, img, ch, 1.05) }))
	}
	add(step("level", 1.2, func(s *core.Session, img any) { imagesa.Level(s, img, 10, 245) }))
	add(step("gamma-up", 1.4, func(s *core.Session, img any) { imagesa.Gamma(s, img, 1.1) }))
	// Repeat tone/contrast refinement rounds to the filter's 31 calls.
	for round := 0; round < 4; round++ {
		alpha := 0.03 + 0.01*float64(round)
		add(step("tone", 1.2, func(s *core.Session, img any) { imagesa.Colorize(s, img, 0xff, 0x99, 0x66, alpha) }))
		add(step("contrast", 1.6, func(s *core.Session, img any) { imagesa.SigmoidalContrast(s, img, true, 2, 120) }))
		add(step("level", 1.2, func(s *core.Session, img any) { imagesa.Level(s, img, 5, 250) }))
		add(step("gamma", 1.4, func(s *core.Session, img any) { imagesa.Gamma(s, img, 0.98) }))
		add(step("saturate", 5, func(s *core.Session, img any) { imagesa.Modulate(s, img, 100, 104, 100) }))
	}
	return steps // 12 + 19 = 31 calls
}

// gothamSteps is the 15-call Gotham pipeline: desaturated blue tones, high
// contrast, strong gamma.
func gothamSteps() []imgStep {
	var steps []imgStep
	add := func(s imgStep) { steps = append(steps, s) }
	add(step("modulate", 5, func(s *core.Session, img any) { imagesa.Modulate(s, img, 120, 10, 100) }))
	add(step("colorize", 1.2, func(s *core.Session, img any) { imagesa.Colorize(s, img, 0x22, 0x2b, 0x6d, 0.2) }))
	add(step("gamma", 1.4, func(s *core.Session, img any) { imagesa.Gamma(s, img, 0.5) }))
	add(step("contrast", 1.6, func(s *core.Session, img any) { imagesa.SigmoidalContrast(s, img, true, 4, 128) }))
	add(step("level-blue", 0.8, func(s *core.Session, img any) { imagesa.ChannelScale(s, img, 2, 1.1) }))
	for round := 0; round < 2; round++ {
		add(step("tone", 1.2, func(s *core.Session, img any) { imagesa.Colorize(s, img, 0x10, 0x18, 0x40, 0.05) }))
		add(step("contrast", 1.6, func(s *core.Session, img any) { imagesa.SigmoidalContrast(s, img, true, 2, 110) }))
		add(step("level", 1.2, func(s *core.Session, img any) { imagesa.Level(s, img, 8, 248) }))
		add(step("gamma", 1.4, func(s *core.Session, img any) { imagesa.Gamma(s, img, 0.95) }))
		add(step("desaturate", 5, func(s *core.Session, img any) { imagesa.Modulate(s, img, 100, 96, 100) }))
	}
	return steps // 5 + 10 = 15 calls
}

// imgChecksum hashes the pixels.
func imgChecksum(m *imagelib.Image) float64 {
	var sum uint64
	for i, p := range m.Pix {
		sum += uint64(p) * uint64(i%251+1)
	}
	return float64(sum % (1 << 52))
}

func prepareImageFilter(steps func() []imgStep) func(cfg Config) (*Program, error) {
	return func(cfg Config) (*Program, error) {
		// Scale is the pixel row count of a 4:3 image.
		h := cfg.Scale
		img := data.Photo(h*4/3, h, 101)
		return &Program{cfg: cfg,
			pipeline: func(s *core.Session) (float64, error) {
				fut := s.Track(img)
				for _, st := range steps() {
					st.call(s, img)
				}
				res, err := fut.Get()
				if err != nil {
					return 0, err
				}
				return imgChecksum(res.(*imagelib.Image)), nil
			},
		}, nil
	}
}

func imgModel(steps func() []imgStep) func(v Variant, cfg Config) *memsim.Workload {
	return func(v Variant, cfg Config) *memsim.Workload {
		// One element per pixel row of a 4:3 RGBA image.
		w := int64(cfg.Scale) * 4 / 3
		var ops []opSpec
		for _, st := range steps() {
			c := st.cycPx * float64(w) // cycles per row
			ops = append(ops, opSpec{name: st.name, cycles: c, weldC: c, reads: []int{0}, writes: []int{0}})
		}
		// The image splitter produces aliasing row-band views now, so the
		// Mozart variants no longer pay the §8.2 crop/append copy passes
		// (SplitCopies) the paper's original integration exhibited.
		return chainModel("image", ops, int64(cfg.Scale), w*4, v, cfg.Batch)
	}
}

func init() {
	register(Spec{
		Name:         "nashville-imagemagick",
		Library:      "ImageMagick",
		Description:  "Nashville Instagram filter: color masks, gamma, HSV modulation (Fig. 4n)",
		Operators:    31,
		BaseParallel: true,
		Variants:     []Variant{Base, Mozart, MozartNoPipe},
		Prepare:      prepareImageFilter(nashvilleSteps),
		DefaultScale: 4096,
		Model:        imgModel(nashvilleSteps),
	})
	register(Spec{
		Name:         "gotham-imagemagick",
		Library:      "ImageMagick",
		Description:  "Gotham Instagram filter: desaturation, contrast, modulation (Fig. 4o)",
		Operators:    15,
		BaseParallel: true,
		Variants:     []Variant{Base, Mozart, MozartNoPipe},
		Prepare:      prepareImageFilter(gothamSteps),
		DefaultScale: 4096,
		Model:        imgModel(gothamSteps),
	})
}
