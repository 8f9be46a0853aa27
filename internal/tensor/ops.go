package tensor

import "fmt"

// checkSameSize panics unless a and b hold the same element count.
func checkSameSize(op string, a, b *Tensor) {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// Scale multiplies every element of t by s in place.
func (t *Tensor) Scale(s float64) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// Axpy performs t += alpha * x elementwise.
func (t *Tensor) Axpy(alpha float64, x *Tensor) {
	checkSameSize("Axpy", t, x)
	for i := range t.data {
		t.data[i] += alpha * x.data[i]
	}
}

// Clamp limits every element of t to the closed interval [lo, hi].
func (t *Tensor) Clamp(lo, hi float64) {
	if lo > hi {
		panic(fmt.Sprintf("tensor: Clamp bounds inverted [%g, %g]", lo, hi))
	}
	for i, v := range t.data {
		if v < lo {
			t.data[i] = lo
		} else if v > hi {
			t.data[i] = hi
		}
	}
}

// RowSlice returns a view of row r of a rank-2 tensor as a rank-1 tensor
// sharing storage.
func (t *Tensor) RowSlice(r int) *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: RowSlice needs rank 2, got shape %v", t.shape))
	}
	cols := t.shape[1]
	return &Tensor{shape: []int{cols}, data: t.data[r*cols : (r+1)*cols]}
}

// SumRows returns a rank-1 tensor with the column sums of a rank-2
// tensor: out[j] = sum_i t[i,j].
func (t *Tensor) SumRows() *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: SumRows needs rank 2, got shape %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := New(cols)
	for i := 0; i < rows; i++ {
		row := t.data[i*cols : (i+1)*cols]
		for j, v := range row {
			out.data[j] += v
		}
	}
	return out
}

// AddRowVector adds v to every row of a rank-2 tensor in place:
// t[i,j] += v[j].
func (t *Tensor) AddRowVector(v *Tensor) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: AddRowVector needs rank 2, got shape %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	if v.Size() != cols {
		panic(fmt.Sprintf("tensor: AddRowVector vector size %d != cols %d", v.Size(), cols))
	}
	for i := 0; i < rows; i++ {
		row := t.data[i*cols : (i+1)*cols]
		for j := range row {
			row[j] += v.data[j]
		}
	}
}

// Transpose returns a new rank-2 tensor that is the transpose of t.
func (t *Tensor) Transpose() *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Transpose needs rank 2, got shape %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := New(cols, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out.data[j*rows+i] = t.data[i*cols+j]
		}
	}
	return out
}
