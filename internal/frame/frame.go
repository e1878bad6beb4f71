package frame

import (
	"fmt"
	"strings"
)

// DataFrame is an ordered collection of equal-length columns.
type DataFrame struct {
	Cols []*Series
}

// NewDataFrame builds a frame from columns, validating lengths and names.
func NewDataFrame(cols ...*Series) *DataFrame {
	df := &DataFrame{Cols: cols}
	seen := map[string]bool{}
	for _, c := range cols {
		if c.Name == "" {
			panic("frame: unnamed column")
		}
		if seen[c.Name] {
			panic(fmt.Sprintf("frame: duplicate column %q", c.Name))
		}
		seen[c.Name] = true
		if c.Len() != cols[0].Len() {
			panic(fmt.Sprintf("frame: column %q length %d != %d", c.Name, c.Len(), cols[0].Len()))
		}
	}
	return df
}

// NRows returns the number of rows.
func (df *DataFrame) NRows() int {
	if len(df.Cols) == 0 {
		return 0
	}
	return df.Cols[0].Len()
}

// NCols returns the number of columns.
func (df *DataFrame) NCols() int { return len(df.Cols) }

// Col returns the named column, or panics (Pandas KeyError style).
func (df *DataFrame) Col(name string) *Series {
	for _, c := range df.Cols {
		if c.Name == name {
			return c
		}
	}
	panic(fmt.Sprintf("frame: no column %q", name))
}

// HasCol reports whether the named column exists.
func (df *DataFrame) HasCol(name string) bool {
	for _, c := range df.Cols {
		if c.Name == name {
			return true
		}
	}
	return false
}

// WithColumn returns a new frame with the column added or replaced.
func (df *DataFrame) WithColumn(s *Series) *DataFrame {
	if df.NCols() > 0 && s.Len() != df.NRows() {
		panic(fmt.Sprintf("frame: WithColumn length %d != %d", s.Len(), df.NRows()))
	}
	out := &DataFrame{}
	replaced := false
	for _, c := range df.Cols {
		if c.Name == s.Name {
			out.Cols = append(out.Cols, s)
			replaced = true
		} else {
			out.Cols = append(out.Cols, c)
		}
	}
	if !replaced {
		out.Cols = append(out.Cols, s)
	}
	return out
}

// Select returns a frame with only the named columns, in order.
func (df *DataFrame) Select(names ...string) *DataFrame {
	out := &DataFrame{}
	for _, n := range names {
		out.Cols = append(out.Cols, df.Col(n))
	}
	return out
}

// Rename returns a frame with column old renamed to new.
func (df *DataFrame) Rename(old, new string) *DataFrame {
	out := &DataFrame{}
	for _, c := range df.Cols {
		if c.Name == old {
			cc := *c
			cc.Name = new
			out.Cols = append(out.Cols, &cc)
		} else {
			out.Cols = append(out.Cols, c)
		}
	}
	return out
}

// Slice returns rows [r0, r1) as a shared-storage view.
func (df *DataFrame) Slice(r0, r1 int) *DataFrame {
	out := &DataFrame{}
	for _, c := range df.Cols {
		out.Cols = append(out.Cols, c.Slice(r0, r1))
	}
	return out
}

// ConcatDF stacks frames with identical schemas.
func ConcatDF(parts ...*DataFrame) *DataFrame {
	if len(parts) == 0 {
		return &DataFrame{}
	}
	first := parts[0]
	out := &DataFrame{}
	if n := len(first.Cols); n > 0 {
		out.Cols = make([]*Series, 0, n)
	}
	cols := make([]*Series, len(parts)) // one column's parts; reused per column
	for ci, c := range first.Cols {
		for pi, p := range parts {
			if p.NCols() != first.NCols() || p.Cols[ci].Name != c.Name {
				panic("frame: ConcatDF schema mismatch")
			}
			cols[pi] = p.Cols[ci]
		}
		out.Cols = append(out.Cols, ConcatSeries(cols...))
	}
	return out
}

// Filter returns the rows where mask is true (boolean indexing).
func Filter(df *DataFrame, mask *Series) *DataFrame {
	if mask.Dtype != Bool {
		panic("frame: Filter needs a bool mask")
	}
	if mask.Len() != df.NRows() {
		panic("frame: Filter mask length mismatch")
	}
	idx := make([]int, 0, df.NRows())
	for i, keep := range mask.B {
		if keep {
			idx = append(idx, i)
		}
	}
	out := &DataFrame{}
	for _, c := range df.Cols {
		out.Cols = append(out.Cols, c.Gather(idx))
	}
	return out
}

// FilterSeries returns the elements of s where mask is true.
func FilterSeries(s *Series, mask *Series) *Series {
	idx := make([]int, 0, s.Len())
	for i, keep := range mask.B {
		if keep {
			idx = append(idx, i)
		}
	}
	return s.Gather(idx)
}

// String renders a small preview of the frame.
func (df *DataFrame) String() string {
	var b strings.Builder
	for i, c := range df.Cols {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s(%s)", c.Name, c.Dtype)
	}
	fmt.Fprintf(&b, "  [%d rows]", df.NRows())
	return b.String()
}
