package core

import "context"

// Future is a lazy value handle, the Go analogue of the paper's C++
// Future<T> and Python placeholder objects (§4). Accessing the value forces
// evaluation of the session's pending dataflow graph.
type Future struct {
	sess *Session
	b    *binding
}

// Get forces evaluation of the pending graph and returns the value, under
// the session's base context (Options.BaseContext, default
// context.Background()) — a request-scoped deadline installed there bounds
// lazy reads too.
func (f *Future) Get() (any, error) {
	return f.GetContext(f.sess.baseContext())
}

// GetContext is Get under a caller-controlled context (see
// Session.EvaluateContext). When evaluation fails, a binding materialized
// by an earlier successful evaluation still returns its (final) value;
// a binding the failed evaluation should have produced is poisoned and
// returns ErrNotEvaluated with the failure as its cause — never a stale or
// partial value.
func (f *Future) GetContext(ctx context.Context) (any, error) {
	if f.sess == nil {
		// A nil session's Future (resolvedFuture): the value, or the
		// error the call failed with.
		if !f.b.ready {
			return nil, f.b.val.(error)
		}
		return f.b.val, nil
	}
	if err := f.sess.EvaluateContext(ctx); err != nil {
		if f.b.ready && !f.b.discarded {
			return f.b.val, nil
		}
		if f.b.discarded {
			return nil, ErrDiscarded
		}
		return nil, &notEvaluatedError{cause: err}
	}
	return f.sess.read(f.b)
}

// Value is like Get but panics on error; convenient in examples and tests.
func (f *Future) Value() any {
	v, err := f.Get()
	if err != nil {
		panic(err)
	}
	return v
}

// Keep marks the value as needed even if it is only consumed inside a
// pipeline stage, forcing the runtime to merge and materialize it.
func (f *Future) Keep() *Future {
	f.b.keep = true
	return f
}

// Resolved reports whether the value has already been materialized.
func (f *Future) Resolved() bool { return f.b.ready && !f.b.discarded }

// Float64s returns the value as a []float64, forcing evaluation.
func (f *Future) Float64s() ([]float64, error) {
	v, err := f.Get()
	if err != nil {
		return nil, err
	}
	s, ok := v.([]float64)
	if !ok {
		return nil, typeErrorf("[]float64", v)
	}
	return s, nil
}

// Float64 returns the value as a float64, forcing evaluation.
func (f *Future) Float64() (float64, error) {
	v, err := f.Get()
	if err != nil {
		return 0, err
	}
	s, ok := v.(float64)
	if !ok {
		return 0, typeErrorf("float64", v)
	}
	return s, nil
}

// Int64 returns the value as an int64, forcing evaluation.
func (f *Future) Int64() (int64, error) {
	v, err := f.Get()
	if err != nil {
		return 0, err
	}
	s, ok := v.(int64)
	if !ok {
		return 0, typeErrorf("int64", v)
	}
	return s, nil
}
