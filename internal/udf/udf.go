// Package udf implements the black-box function machinery of §6.2: a
// registry of externally implemented (Go) functions and the array
// marshaling layer that re-casts the engine's storage layout into the
// row- or column-major dense buffers an external library expects.
// The recast is exactly the "potentially expensive operation" the
// paper flags as a reason to move hot functions to white-box form.
package udf

import (
	"fmt"
	"math"

	"repro/internal/array"
	"repro/internal/storage"
	"repro/internal/value"
)

// Layout names a dense element order expected by an external library.
type Layout int

const (
	// RowMajor is C order: the last dimension varies fastest.
	RowMajor Layout = iota
	// ColMajor is Fortran/FITS order: the first dimension varies fastest.
	ColMajor
)

// Dense2D is the marshaled form handed to external matrix routines.
type Dense2D struct {
	Rows, Cols int
	// Data holds Rows*Cols float64s in the requested layout. Holes and
	// out-of-bounds cells are NaN.
	Data   []float64
	Layout Layout
}

// At reads element (r, c) regardless of layout.
func (d *Dense2D) At(r, c int) float64 {
	if d.Layout == RowMajor {
		return d.Data[r*d.Cols+c]
	}
	return d.Data[c*d.Rows+r]
}

// SetAt writes element (r, c).
func (d *Dense2D) SetAt(r, c int, v float64) {
	if d.Layout == RowMajor {
		d.Data[r*d.Cols+c] = v
	} else {
		d.Data[c*d.Rows+r] = v
	}
}

// Marshal2D converts a 2-D array attribute into a dense buffer with
// the requested layout. When the array's physical representation is a
// dense store already in that order, the copy is a straight memcpy of
// the BAT tail; otherwise every element is re-addressed — the recast
// cost measured by BenchmarkBlackBoxMarshal.
func Marshal2D(a *array.Array, attr int, layout Layout) (*Dense2D, error) {
	if len(a.Schema.Dims) != 2 {
		return nil, fmt.Errorf("Marshal2D: array %s has %d dimensions", a.Name, len(a.Schema.Dims))
	}
	lo, hi, err := a.BoundingBox()
	if err != nil {
		return nil, err
	}
	stepR := step(a.Schema.Dims[0])
	stepC := step(a.Schema.Dims[1])
	rows := int((hi[0]-lo[0])/stepR) + 1
	cols := int((hi[1]-lo[1])/stepC) + 1
	out := &Dense2D{Rows: rows, Cols: cols, Layout: layout, Data: make([]float64, rows*cols)}
	for i := range out.Data {
		out.Data[i] = math.NaN()
	}
	// Fast path: a dense row-major store marshaled to row-major order
	// copies the tail directly, chunk by chunk.
	if df, ok := a.Store.(storage.DenseFloats); ok && layout == RowMajor && df.RowMajor() {
		n := 0
		isFloat := df.FloatChunks(attr, func(data []float64, valid []uint64) {
			if n+len(data) <= len(out.Data) {
				for i, f := range data {
					if valid[i>>6]&(1<<(uint(i)&63)) != 0 {
						out.Data[n+i] = f
					}
				}
			}
			n += len(data)
		})
		if isFloat && n == len(out.Data) {
			return out, nil
		}
		for i := range out.Data {
			out.Data[i] = math.NaN()
		}
	}
	coords := make([]int64, 2)
	for r := 0; r < rows; r++ {
		coords[0] = lo[0] + int64(r)*stepR
		for c := 0; c < cols; c++ {
			coords[1] = lo[1] + int64(c)*stepC
			v := a.Get(coords, attr)
			if !v.Null {
				out.SetAt(r, c, v.AsFloat())
			}
		}
	}
	return out, nil
}

// Unmarshal2D writes a dense buffer back into an array attribute,
// mapping ordinals from the array's bounding box. NaN elements punch
// holes.
func Unmarshal2D(a *array.Array, attr int, d *Dense2D) error {
	if len(a.Schema.Dims) != 2 {
		return fmt.Errorf("Unmarshal2D: array %s has %d dimensions", a.Name, len(a.Schema.Dims))
	}
	lo, _, err := a.BoundingBox()
	if err != nil {
		return err
	}
	stepR := step(a.Schema.Dims[0])
	stepC := step(a.Schema.Dims[1])
	coords := make([]int64, 2)
	for r := 0; r < d.Rows; r++ {
		coords[0] = lo[0] + int64(r)*stepR
		for c := 0; c < d.Cols; c++ {
			coords[1] = lo[1] + int64(c)*stepC
			f := d.At(r, c)
			if math.IsNaN(f) {
				if err := a.Store.Set(coords, attr, value.NewNull(value.Float)); err != nil {
					return err
				}
				continue
			}
			if err := a.Store.Set(coords, attr, value.NewFloat(f)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Marshal1D converts a 1-D array attribute into a float vector.
func Marshal1D(a *array.Array, attr int) ([]float64, error) {
	if len(a.Schema.Dims) != 1 {
		return nil, fmt.Errorf("Marshal1D: array %s has %d dimensions", a.Name, len(a.Schema.Dims))
	}
	lo, hi, err := a.BoundingBox()
	if err != nil {
		return nil, err
	}
	st := step(a.Schema.Dims[0])
	n := int((hi[0]-lo[0])/st) + 1
	out := make([]float64, n)
	coords := make([]int64, 1)
	for i := 0; i < n; i++ {
		coords[0] = lo[0] + int64(i)*st
		v := a.Get(coords, attr)
		if v.Null {
			out[i] = math.NaN()
		} else {
			out[i] = v.AsFloat()
		}
	}
	return out, nil
}

func step(d array.Dimension) int64 {
	if d.Step <= 0 {
		return 1
	}
	return d.Step
}

// --- external library (the paper's linked-in routines, in Go) --------------

// MarkovStep performs `steps` iterations of a row-stochastic
// transition: normalize rows, then square the matrix per step. It is
// the stand-in for the paper's 'markov.loop' library routine.
func MarkovStep(m *Dense2D, steps int) *Dense2D {
	n := m.Rows
	cur := make([]float64, len(m.Data))
	copy(cur, m.Data)
	get := func(buf []float64, r, c int) float64 {
		if m.Layout == RowMajor {
			return buf[r*m.Cols+c]
		}
		return buf[c*m.Rows+r]
	}
	set := func(buf []float64, r, c int, v float64) {
		if m.Layout == RowMajor {
			buf[r*m.Cols+c] = v
		} else {
			buf[c*m.Rows+r] = v
		}
	}
	// Row normalization (NaNs count as zero mass).
	for r := 0; r < n; r++ {
		sum := 0.0
		for c := 0; c < m.Cols; c++ {
			if f := get(cur, r, c); !math.IsNaN(f) {
				sum += f
			}
		}
		if sum == 0 {
			continue
		}
		for c := 0; c < m.Cols; c++ {
			f := get(cur, r, c)
			if math.IsNaN(f) {
				set(cur, r, c, 0)
			} else {
				set(cur, r, c, f/sum)
			}
		}
	}
	next := make([]float64, len(cur))
	for s := 0; s < steps; s++ {
		for r := 0; r < n; r++ {
			for c := 0; c < m.Cols; c++ {
				acc := 0.0
				for k := 0; k < m.Cols && k < n; k++ {
					acc += get(cur, r, k) * get(cur, k, c)
				}
				set(next, r, c, acc)
			}
		}
		cur, next = next, cur
	}
	return &Dense2D{Rows: m.Rows, Cols: m.Cols, Layout: m.Layout, Data: cur}
}

// Euclidean computes the distance between two equal-length vectors,
// skipping positions where either side is NaN (outer NULLs).
func Euclidean(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			continue
		}
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Noise reduces a sensor-drift value: the DESTRIPE correction applied
// to every sixth scan line (§7.1.1). delta is the per-channel drift
// estimated from line statistics.
func Noise(v, delta float64) float64 { return v - delta }
