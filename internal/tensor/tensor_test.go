package tensor

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if len(x.Shape()) != 3 {
		t.Fatalf("rank = %d, want 3", len(x.Shape()))
	}
	if x.Size() != 24 {
		t.Fatalf("size = %d, want 24", x.Size())
	}
	if x.Dim(1) != 3 {
		t.Fatalf("dim(1) = %d, want 3", x.Dim(1))
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewRankZero(t *testing.T) {
	x := New()
	if x.Size() != 1 {
		t.Fatalf("rank-0 tensor size = %d, want 1", x.Size())
	}
}

func TestNewNegativeDimensionPanics(t *testing.T) {
	defer expectPanic(t, "negative dimension")
	New(2, -1)
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 9
	if x.At(0, 0) != 9 {
		t.Fatal("FromSlice must not copy the slice")
	}
}

func TestFromSliceSizeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "size mismatch")
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRowMajorLayout(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if x.Data()[5] != 7 {
		t.Fatalf("row-major offset of [1,2] should be 5; data=%v", x.Data())
	}
	if x.At(1, 2) != 7 {
		t.Fatal("At should read back Set value")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 3)
	defer expectPanic(t, "index out of range")
	x.At(2, 0)
}

func TestAtWrongRankPanics(t *testing.T) {
	x := New(2, 3)
	defer expectPanic(t, "wrong rank index")
	x.At(1)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	c := x.Clone()
	c.Set(99, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
	if !reflect.DeepEqual(x.Shape(), c.Shape()) {
		t.Fatal("Clone must preserve shape")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(42, 0, 0)
	if x.At(0, 0) != 42 {
		t.Fatal("Reshape must be a view")
	}
}

func TestReshapeInferredDimension(t *testing.T) {
	x := New(4, 6)
	y := x.Reshape(2, -1)
	if y.Dim(1) != 12 {
		t.Fatalf("inferred dim = %d, want 12", y.Dim(1))
	}
}

func TestReshapeVolumeMismatchPanics(t *testing.T) {
	x := New(2, 3)
	defer expectPanic(t, "volume change")
	x.Reshape(4, 2)
}

func TestFillZeroApply(t *testing.T) {
	x := New(3)
	x.Fill(2)
	for _, v := range x.Data() {
		if v != 2 {
			t.Fatalf("fill result = %v, want all 2", x.Data())
		}
	}
	x.Zero()
	if x.Sum() != 0 {
		t.Fatal("Zero must clear all elements")
	}
}

func TestMinMaxMeanStd(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 4)
	mn, mx := x.MinMax()
	if mn != 1 || mx != 4 {
		t.Fatalf("MinMax = %g,%g want 1,4", mn, mx)
	}
	if x.Mean() != 2.5 {
		t.Fatalf("Mean = %g, want 2.5", x.Mean())
	}
	want := math.Sqrt(1.25)
	if math.Abs(x.Std()-want) > 1e-12 {
		t.Fatalf("Std = %g, want %g", x.Std(), want)
	}
}

func TestArgMaxFirstOfTies(t *testing.T) {
	x := FromSlice([]float64{0, 5, 5, 1}, 4)
	if x.ArgMax() != 1 {
		t.Fatalf("ArgMax = %d, want first max index 1", x.ArgMax())
	}
}

func TestAbsMax(t *testing.T) {
	x := FromSlice([]float64{-7, 3, 2}, 3)
	if x.AbsMax() != 7 {
		t.Fatalf("AbsMax = %g, want 7", x.AbsMax())
	}
}

func TestScaleAxpyClamp(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	x.Scale(2)
	y := FromSlice([]float64{1, 1, 1}, 3)
	x.Axpy(3, y) // 2,4,6 + 3 = 5,7,9
	if x.Data()[2] != 9 {
		t.Fatalf("Axpy result = %v", x.Data())
	}
	x.Clamp(6, 8)
	if x.Data()[0] != 6 || x.Data()[2] != 8 {
		t.Fatalf("Clamp result = %v", x.Data())
	}
}

func TestClampInvertedBoundsPanics(t *testing.T) {
	x := New(1)
	defer expectPanic(t, "inverted bounds")
	x.Clamp(2, 1)
}

func TestRowSliceSharesStorage(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	r := x.RowSlice(1)
	r.Set(42, 0)
	if x.At(1, 0) != 42 {
		t.Fatal("RowSlice must share storage")
	}
}

func TestSumRowsAndAddRowVector(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	s := x.SumRows()
	want := []float64{5, 7, 9}
	for i, v := range want {
		if s.Data()[i] != v {
			t.Fatalf("SumRows = %v, want %v", s.Data(), want)
		}
	}
	x.AddRowVector(FromSlice([]float64{10, 20, 30}, 3))
	if x.At(1, 2) != 36 {
		t.Fatalf("AddRowVector result = %v", x.Data())
	}
}

func TestTranspose(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Transpose()
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("Transpose shape = %v", y.Shape())
	}
	if y.At(2, 1) != 6 || y.At(0, 1) != 4 {
		t.Fatalf("Transpose values wrong: %v", y.Data())
	}
}

func TestMatMulKnownResult(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := matMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data()[i] != v {
			t.Fatalf("MatMul = %v, want %v", c.Data(), want)
		}
	}
}

func TestMatMulDimensionMismatchPanics(t *testing.T) {
	defer expectPanic(t, "dimension mismatch")
	MatMulInto(New(2, 2), New(2, 3), New(2, 2))
}

// TestMatMulIntoZeroAlloc pins the forward matmul at zero heap
// allocations into a caller-owned destination, on the 32x64 · 64x64
// shape of a batch forward through one 64x64 layer.
func TestMatMulIntoZeroAlloc(t *testing.T) {
	rng := NewRNG(20)
	a, w, dst := New(32, 64), New(64, 64), New(32, 64)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(w, 0, 0.5)
	if n := testing.AllocsPerRun(100, func() { MatMulInto(dst, a, w) }); n != 0 {
		t.Fatalf("MatMulInto: %v allocs/op, want 0", n)
	}
}

// TestMatMulTransposedVariantsAgree checks the AT kernel against an
// explicit transpose, property-style over random shapes.
func TestMatMulTransposedVariantsAgree(t *testing.T) {
	rng := NewRNG(1)
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(6)
		k := 1 + rng.Intn(6)
		n := 1 + rng.Intn(6)
		a := New(m, k)
		b := New(k, n)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)

		want := matMul(a, b)

		gotAT := New(m, n)
		MatMulATInto(gotAT, a.Transpose(), b)
		assertAllClose(t, gotAT.Data(), want.Data(), 1e-10, "MatMulATInto")
	}
}

// Property: matmul distributes over addition, A(B+C) = AB + AC.
func TestMatMulDistributesOverAddition(t *testing.T) {
	rng := NewRNG(2)
	f := func(seed int64) bool {
		r := NewRNG(seed)
		m, k, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a, b, c := New(m, k), New(k, n), New(k, n)
		r.FillNormal(a, 0, 1)
		r.FillNormal(b, 0, 1)
		r.FillNormal(c, 0, 1)
		bc := b.Clone()
		bc.Axpy(1, c)
		left := matMul(a, bc)
		right := matMul(a, b)
		right.Axpy(1, matMul(a, c))
		for i := range left.Data() {
			if math.Abs(left.Data()[i]-right.Data()[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Values: nil}
	_ = rng
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// matMul returns a @ b in a fresh tensor.
func matMul(a, b *Tensor) *Tensor {
	out := New(a.Dim(0), b.Dim(1))
	MatMulInto(out, a, b)
	return out
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("expected panic: %s", what)
	}
}

func assertAllClose(t *testing.T, got, want []float64, tol float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: element %d differs: %g vs %g", what, i, got[i], want[i])
		}
	}
}
