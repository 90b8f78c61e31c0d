// Package storage implements the four alternative array storage
// schemes of the paper's Figure 1 — Tabular, Virtual, D-Order and
// n-ary Slabs — behind the array.Store interface, plus the adaptive
// selection policy of §2.2 that picks a representation from the
// intrinsic properties of an array instance.
package storage

import (
	"math/bits"
	"unsafe"

	"repro/internal/array"
	"repro/internal/value"
)

// column is a fixed- or growable-length typed attribute column with a
// validity bitmap (0 bit = NULL/hole). It is the dense C-array of the
// MonetDB BAT tail, specialized per type for bulk speed.
type column struct {
	typ   value.Type
	f     []float64
	i     []int64
	s     []string
	b     []bool
	a     []value.Value // boxed storage for Array-typed attributes
	valid []uint64
}

func newColumn(t value.Type, n int) *column {
	c := &column{typ: t, valid: make([]uint64, (n+63)/64)}
	switch t {
	case value.Float:
		c.f = make([]float64, n)
	case value.Int, value.Timestamp:
		c.i = make([]int64, n)
	case value.String:
		c.s = make([]string, n)
	case value.Bool:
		c.b = make([]bool, n)
	default:
		c.a = make([]value.Value, n)
	}
	return c
}

func (c *column) len() int {
	switch c.typ {
	case value.Float:
		return len(c.f)
	case value.Int, value.Timestamp:
		return len(c.i)
	case value.String:
		return len(c.s)
	case value.Bool:
		return len(c.b)
	default:
		return len(c.a)
	}
}

func (c *column) isValid(i int) bool {
	w := i >> 6
	return w < len(c.valid) && c.valid[w]&(1<<(uint(i)&63)) != 0
}

func (c *column) setValid(i int, ok bool) {
	w := i >> 6
	for len(c.valid) <= w {
		c.valid = append(c.valid, 0)
	}
	if ok {
		c.valid[w] |= 1 << (uint(i) & 63)
	} else {
		c.valid[w] &^= 1 << (uint(i) & 63)
	}
}

func (c *column) get(i int) value.Value {
	if !c.isValid(i) {
		return value.NewNull(c.typ)
	}
	switch c.typ {
	case value.Float:
		return value.NewFloat(c.f[i])
	case value.Int:
		return value.NewInt(c.i[i])
	case value.Timestamp:
		return value.NewTimestamp(c.i[i])
	case value.String:
		return value.NewString(c.s[i])
	case value.Bool:
		return value.NewBool(c.b[i])
	default:
		return c.a[i]
	}
}

func (c *column) set(i int, v value.Value) {
	if v.Null {
		c.setValid(i, false)
		return
	}
	c.setValid(i, true)
	switch c.typ {
	case value.Float:
		c.f[i] = v.AsFloat()
	case value.Int, value.Timestamp:
		c.i[i] = v.AsInt()
	case value.String:
		c.s[i] = v.S
	case value.Bool:
		c.b[i] = v.AsBool()
	default:
		c.a[i] = v
	}
}

func (c *column) grow() int {
	i := c.len()
	switch c.typ {
	case value.Float:
		c.f = append(c.f, 0)
	case value.Int, value.Timestamp:
		c.i = append(c.i, 0)
	case value.String:
		c.s = append(c.s, "")
	case value.Bool:
		c.b = append(c.b, false)
	default:
		c.a = append(c.a, value.Value{})
	}
	c.setValid(i, false)
	return i
}

// fill writes v into every position [0,n) of a fresh (all-NULL)
// column.
func (c *column) fill(v value.Value, n int) {
	if v.Null {
		return
	}
	c.set(0, v)
	switch c.typ {
	case value.Float:
		for i := 1; i < n; i++ {
			c.f[i] = c.f[0]
		}
	case value.Int, value.Timestamp:
		for i := 1; i < n; i++ {
			c.i[i] = c.i[0]
		}
	case value.String:
		for i := 1; i < n; i++ {
			c.s[i] = c.s[0]
		}
	case value.Bool:
		for i := 1; i < n; i++ {
			c.b[i] = c.b[0]
		}
	default:
		for i := 1; i < n; i++ {
			c.a[i] = c.a[0]
		}
	}
	for w := 0; w < n/64; w++ {
		c.valid[w] = ^uint64(0)
	}
	if n%64 != 0 {
		c.valid[n/64] = 1<<(uint(n)%64) - 1
	}
}

func (c *column) clone() *column {
	out := &column{typ: c.typ, valid: append([]uint64(nil), c.valid...)}
	out.f = append([]float64(nil), c.f...)
	out.i = append([]int64(nil), c.i...)
	out.s = append([]string(nil), c.s...)
	out.b = append([]bool(nil), c.b...)
	out.a = append([]value.Value(nil), c.a...)
	return out
}

// bytes is the size of the column's data and validity words, the
// amount clone copies.
func (c *column) bytes() int64 {
	n := 8*len(c.f) + 8*len(c.i) + 16*len(c.s) + len(c.b) + 8*len(c.valid)
	if len(c.a) > 0 {
		n += len(c.a) * int(unsafe.Sizeof(value.Value{}))
	}
	return int64(n)
}

// minMax returns the minimum and maximum non-NULL value in
// value.Compare order, the first of equal values winning; both are
// NULL when there is none.
func (c *column) minMax() (lo, hi value.Value) {
	switch c.typ {
	case value.Float:
		if l, h, ok := minMaxOf(c.f, c.valid); ok {
			return value.NewFloat(l), value.NewFloat(h)
		}
	case value.Int:
		if l, h, ok := minMaxOf(c.i, c.valid); ok {
			return value.NewInt(l), value.NewInt(h)
		}
	case value.Timestamp:
		if l, h, ok := minMaxOf(c.i, c.valid); ok {
			return value.NewTimestamp(l), value.NewTimestamp(h)
		}
	case value.String:
		if l, h, ok := minMaxOf(c.s, c.valid); ok {
			return value.NewString(l), value.NewString(h)
		}
	case value.Bool:
		have, lo, hi := false, true, false
		for i, b := range c.b {
			if c.isValid(i) {
				have = true
				lo, hi = lo && b, hi || b
			}
		}
		if have {
			return value.NewBool(lo), value.NewBool(hi)
		}
	default:
		have := false
		for i, v := range c.a {
			if !c.isValid(i) {
				continue
			}
			if !have || value.Compare(v, lo) < 0 {
				lo = v
			}
			if !have || value.Compare(v, hi) > 0 {
				hi = v
			}
			have = true
		}
		if have {
			return lo, hi
		}
	}
	return value.NewNull(c.typ), value.NewNull(c.typ)
}

// minMaxOf scans the valid entries of data in position order, word by
// word: all-NULL words are skipped and all-valid words need no bit
// tests.
func minMaxOf[T int64 | float64 | string](data []T, valid []uint64) (lo, hi T, ok bool) {
	for w := 0; w*64 < len(data); w++ {
		seg := data[w*64 : min(w*64+64, len(data))]
		vw := valid[w]
		if vw == ^uint64(0) {
			if !ok {
				lo, hi, ok = seg[0], seg[0], true
			}
			for _, v := range seg {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			continue
		}
		for ; vw != 0; vw &= vw - 1 {
			v := seg[bits.TrailingZeros64(vw)]
			if !ok {
				lo, hi, ok = v, v, true
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi, ok
}

// defaultValue resolves an attribute's creation-time default for the
// cell at coords.
func defaultValue(at array.Attr, coords []int64) value.Value {
	if at.DefaultFn != nil {
		v := at.DefaultFn(coords)
		if at.Check != nil && !v.Null && !at.Check(v) {
			return value.NewNull(at.Typ)
		}
		return v
	}
	if at.Default.Null && at.Default.Typ == value.Unknown {
		return value.NewNull(at.Typ)
	}
	v, err := value.Coerce(at.Default, at.Typ)
	if err != nil {
		return value.NewNull(at.Typ)
	}
	if at.Check != nil && !v.Null && !at.Check(v) {
		return value.NewNull(at.Typ)
	}
	return v
}

// dimChecksPass evaluates all dimension CHECK predicates at coords.
func dimChecksPass(dims []array.Dimension, coords []int64) bool {
	for _, d := range dims {
		if d.Check != nil && !d.Check(coords) {
			return false
		}
	}
	return true
}
