package udf

import (
	"math"
	"testing"

	"repro/internal/array"
	"repro/internal/storage"
	"repro/internal/value"
)

func denseArray(t *testing.T, scheme string, n int64) *array.Array {
	t.Helper()
	sch := array.Schema{
		Dims: []array.Dimension{
			{Name: "x", Typ: value.Int, Start: 0, End: n, Step: 1},
			{Name: "y", Typ: value.Int, Start: 0, End: n, Step: 1},
		},
		Attrs: []array.Attr{{Name: "v", Typ: value.Float, Default: value.NewFloat(0)}},
	}
	st, err := storage.NewScheme(scheme, sch, storage.Hints{SlabSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	a := &array.Array{Name: "m", Schema: sch, Store: st}
	for x := int64(0); x < n; x++ {
		for y := int64(0); y < n; y++ {
			_ = st.Set([]int64{x, y}, 0, value.NewFloat(float64(x*n+y)))
		}
	}
	return a
}

func TestMarshal2DRowMajor(t *testing.T) {
	a := denseArray(t, storage.SchemeVirtual, 4)
	d, err := Marshal2D(a, 0, RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows != 4 || d.Cols != 4 {
		t.Fatalf("shape %dx%d", d.Rows, d.Cols)
	}
	if d.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v, want 6", d.At(1, 2))
	}
	// Raw layout check: row-major means data[1*4+2] == 6.
	if d.Data[6] != 6 {
		t.Errorf("row-major layout violated: data[6] = %v", d.Data[6])
	}
}

func TestMarshal2DColMajor(t *testing.T) {
	a := denseArray(t, storage.SchemeVirtual, 4)
	d, err := Marshal2D(a, 0, ColMajor)
	if err != nil {
		t.Fatal(err)
	}
	if d.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v, want 6", d.At(1, 2))
	}
	// Column-major: data[2*4+1] == 6.
	if d.Data[9] != 6 {
		t.Errorf("col-major layout violated: data[9] = %v", d.Data[9])
	}
}

func TestMarshalAgreesAcrossSchemes(t *testing.T) {
	ref, err := Marshal2D(denseArray(t, storage.SchemeVirtual, 5), 0, RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{storage.SchemeTabular, storage.SchemeDOrder, storage.SchemeSlab} {
		d, err := Marshal2D(denseArray(t, scheme, 5), 0, RowMajor)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		for i := range ref.Data {
			if d.Data[i] != ref.Data[i] {
				t.Fatalf("%s: marshal differs at %d: %v vs %v", scheme, i, d.Data[i], ref.Data[i])
			}
		}
	}
}

// TestMarshalMultiChunk marshals a 100×100 array, which spans three
// storage chunks, through the chunk-walking fast path (Virtual) and
// the per-cell path (Tabular), with holes in two chunks.
func TestMarshalMultiChunk(t *testing.T) {
	var out [2]*Dense2D
	for i, scheme := range []string{storage.SchemeVirtual, storage.SchemeTabular} {
		a := denseArray(t, scheme, 100)
		for _, c := range [][]int64{{0, 3}, {70, 70}} {
			_ = a.Store.Set(c, 0, value.NewNull(value.Float))
		}
		d, err := Marshal2D(a, 0, RowMajor)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d
	}
	for i, f := range out[1].Data {
		if g := out[0].Data[i]; g != f && !(math.IsNaN(g) && math.IsNaN(f)) {
			t.Fatalf("cell %d: virtual %v, tabular %v", i, g, f)
		}
	}
	if !math.IsNaN(out[0].At(70, 70)) || out[0].At(99, 99) != 9999 {
		t.Errorf("At(70,70) = %v, At(99,99) = %v; want NaN and 9999", out[0].At(70, 70), out[0].At(99, 99))
	}
}

func TestMarshalHolesAreNaN(t *testing.T) {
	a := denseArray(t, storage.SchemeVirtual, 3)
	_ = a.Store.Set([]int64{1, 1}, 0, value.NewNull(value.Float))
	d, err := Marshal2D(a, 0, RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(d.At(1, 1)) {
		t.Errorf("hole should marshal as NaN, got %v", d.At(1, 1))
	}
}

func TestUnmarshalRoundTrip(t *testing.T) {
	a := denseArray(t, storage.SchemeVirtual, 4)
	d, _ := Marshal2D(a, 0, ColMajor)
	for i := range d.Data {
		d.Data[i] *= 2
	}
	if err := Unmarshal2D(a, 0, d); err != nil {
		t.Fatal(err)
	}
	if got := a.Get([]int64{2, 3}, 0).AsFloat(); got != 22 {
		t.Errorf("unmarshaled cell = %v, want 22", got)
	}
}

func TestMarshal1D(t *testing.T) {
	sch := array.Schema{
		Dims:  []array.Dimension{{Name: "i", Typ: value.Int, Start: 0, End: 5, Step: 1}},
		Attrs: []array.Attr{{Name: "v", Typ: value.Float, Default: value.NewFloat(1)}},
	}
	st, _ := storage.NewVirtual(sch)
	a := &array.Array{Name: "vec", Schema: sch, Store: st}
	_ = st.Set([]int64{3}, 0, value.NewFloat(9))
	v, err := Marshal1D(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 5 || v[3] != 9 || v[0] != 1 {
		t.Fatalf("vector = %v", v)
	}
}

func TestMarshalDimensionalityErrors(t *testing.T) {
	a := denseArray(t, storage.SchemeVirtual, 3)
	if _, err := Marshal1D(a, 0); err == nil {
		t.Error("Marshal1D on 2-D array should error")
	}
	sch := array.Schema{
		Dims:  []array.Dimension{{Name: "i", Typ: value.Int, Start: 0, End: 2, Step: 1}},
		Attrs: []array.Attr{{Name: "v", Typ: value.Float, Default: value.NewFloat(0)}},
	}
	st, _ := storage.NewVirtual(sch)
	vec := &array.Array{Name: "v", Schema: sch, Store: st}
	if _, err := Marshal2D(vec, 0, RowMajor); err == nil {
		t.Error("Marshal2D on 1-D array should error")
	}
}

func TestMarkovStepStochastic(t *testing.T) {
	d := &Dense2D{Rows: 3, Cols: 3, Layout: RowMajor, Data: []float64{
		1, 1, 0,
		0, 1, 1,
		1, 0, 1,
	}}
	out := MarkovStep(d, 2)
	// Rows of a stochastic matrix power still sum to 1.
	for r := 0; r < 3; r++ {
		sum := 0.0
		for c := 0; c < 3; c++ {
			sum += out.At(r, c)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d sums to %v", r, sum)
		}
	}
}

func TestMarkovLayoutInvariance(t *testing.T) {
	data := []float64{1, 2, 0, 1, 0, 3, 2, 1, 1}
	rm := &Dense2D{Rows: 3, Cols: 3, Layout: RowMajor, Data: append([]float64(nil), data...)}
	cm := &Dense2D{Rows: 3, Cols: 3, Layout: ColMajor, Data: make([]float64, 9)}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			cm.SetAt(r, c, rm.At(r, c))
		}
	}
	or := MarkovStep(rm, 3)
	oc := MarkovStep(cm, 3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if math.Abs(or.At(r, c)-oc.At(r, c)) > 1e-9 {
				t.Fatalf("layout changes result at (%d,%d)", r, c)
			}
		}
	}
}

func TestEuclidean(t *testing.T) {
	if got := Euclidean([]float64{0, 0}, []float64{3, 4}); got != 5 {
		t.Errorf("distance = %v, want 5", got)
	}
	nan := math.NaN()
	if got := Euclidean([]float64{0, nan, 0}, []float64{3, 100, 4}); got != 5 {
		t.Errorf("NaN positions should be skipped: %v", got)
	}
}

func TestNoise(t *testing.T) {
	if Noise(100, 18) != 82 {
		t.Error("noise correction wrong")
	}
}
