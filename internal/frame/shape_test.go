package frame

import (
	"reflect"
	"testing"
)

// A result of no rows is shaped like any other: the name, the dtype, an
// empty non-nil dtype buffer, a mask exactly when the source has one, nil
// buffers for the other dtypes — and no storage of the source.
func TestShapeOfAnEmptyResult(t *testing.T) {
	for _, src := range []*Series{
		NewString("s", nil),
		{Name: "s", Dtype: String, S: []string{}, Valid: []bool{}},
		NewFloat("f", []float64{}),
		{Name: "f", Dtype: Float, Valid: []bool{}},
	} {
		results := map[string]*Series{"Clone": src.Clone(), "IsNull": IsNull(src)}
		if src.Dtype == String {
			results["StrSlice"] = StrSlice(src, 0, 2)
		} else {
			results["AddScalar"] = AddScalar(src, 1)
		}
		for name, got := range results {
			want := &Series{Name: src.Name, Dtype: src.Dtype}
			masked := src.Valid != nil
			if name == "IsNull" {
				want.Dtype, masked = Bool, false
			}
			switch want.Dtype {
			case Float:
				want.F = []float64{}
			case String:
				want.S = []string{}
			case Bool:
				want.B = []bool{}
			}
			if masked {
				want.Valid = []bool{}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s of %+v = %+v, want %+v", name, src, got, want)
			}
		}
	}

	// A destination with room for no rows is a nil buffer: not reused.
	dst := &Series{Name: "old", Dtype: Float}
	if got := AddScalarInto(dst, NewFloat("f", []float64{}), 1); got == dst || got.F == nil {
		t.Errorf("AddScalarInto over no rows reused a destination that has no buffer: %+v", got)
	}
}
