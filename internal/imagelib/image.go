// Package imagelib is the repository's stand-in for ImageMagick's
// MagickWand API: an RGBA image with the color operations the Nashville and
// Gotham Instagram-style filters use, plus Crop and AppendVertically — the
// primitives the paper's ImageMagick split type builds its splitter (crop)
// and merger (append) from. A GaussianBlur with a boundary condition is
// included as the deliberately un-annotatable function (§7.1).
package imagelib

import "fmt"

// Image is an 8-bit RGBA image in row-major order.
type Image struct {
	W, H int
	Pix  []uint8 // len = W*H*4
}

// NewImage allocates a black, opaque image.
func NewImage(w, h int) *Image {
	if w < 0 || h < 0 {
		panic("imagelib: negative dimensions")
	}
	img := &Image{W: w, H: h, Pix: make([]uint8, w*h*4)}
	for i := 3; i < len(img.Pix); i += 4 {
		img.Pix[i] = 255
	}
	return img
}

// Clone deep copies the image.
func (m *Image) Clone() *Image {
	return &Image{W: m.W, H: m.H, Pix: append([]uint8(nil), m.Pix...)}
}

// At returns the RGBA value at (x, y).
func (m *Image) At(x, y int) (r, g, b, a uint8) {
	i := (y*m.W + x) * 4
	return m.Pix[i], m.Pix[i+1], m.Pix[i+2], m.Pix[i+3]
}

// Set assigns the RGBA value at (x, y).
func (m *Image) Set(x, y int, r, g, b, a uint8) {
	i := (y*m.W + x) * 4
	m.Pix[i], m.Pix[i+1], m.Pix[i+2], m.Pix[i+3] = r, g, b, a
}

// Crop returns a copy of the full-width row band [y0, y1) — the operation
// the paper's ImageMagick splitter uses to produce pieces.
func (m *Image) Crop(y0, y1 int) *Image {
	if y0 < 0 || y1 < y0 || y1 > m.H {
		panic(fmt.Sprintf("imagelib: Crop [%d,%d) out of range (height %d)", y0, y1, m.H))
	}
	out := &Image{W: m.W, H: y1 - y0}
	out.Pix = append([]uint8(nil), m.Pix[y0*m.W*4:y1*m.W*4]...)
	return out
}

// AppendVertically stacks images of equal width — the paper's merger.
func AppendVertically(parts ...*Image) *Image {
	if len(parts) == 0 {
		return &Image{}
	}
	w := parts[0].W
	h := 0
	for _, p := range parts {
		if p.W != w {
			panic("imagelib: AppendVertically width mismatch")
		}
		h += p.H
	}
	out := &Image{W: w, H: h, Pix: make([]uint8, 0, w*h*4)}
	for _, p := range parts {
		out.Pix = append(out.Pix, p.Pix...)
	}
	return out
}

// Equal reports whether two images have identical dimensions and pixels.
func (m *Image) Equal(o *Image) bool {
	if m.W != o.W || m.H != o.H {
		return false
	}
	for i := range m.Pix {
		if m.Pix[i] != o.Pix[i] {
			return false
		}
	}
	return true
}

func clamp8(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}
