// Package tensor provides the dense float64 tensor type and the numeric
// kernels (matmul, im2col, elementwise ops, reductions) that the neural
// network and crossbar simulation layers are built on.
//
// Tensors are row-major and always own their backing slice. The package
// is deliberately small and allocation-conscious: the training loop and
// the crossbar simulator call these kernels millions of times.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major float64 array of arbitrary rank.
// The zero value is an empty tensor of rank 0.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape.
// A rank-0 tensor (no dimensions) holds a single element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is
// used directly (not copied); len(data) must equal the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the backing slice in row-major order. Mutating it mutates
// the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's elements into t. Shapes must have equal volume.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.data), len(src.data)))
	}
	copy(t.data, src.data)
}

// Reshape returns a view of t with a new shape of equal volume. The
// backing data is shared.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	inferred := -1
	for i, d := range shape {
		if d == -1 {
			if inferred >= 0 {
				panic("tensor: at most one -1 dimension allowed in Reshape")
			}
			inferred = i
			continue
		}
		n *= d
	}
	out := append([]int(nil), shape...)
	if inferred >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		out[inferred] = len(t.data) / n
		n *= out[inferred]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: reshape %v to %v changes volume", t.shape, shape))
	}
	return &Tensor{shape: out, data: t.data}
}

// offset computes the flat index for the given multi-dimensional index.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		mn, mx := t.MinMax()
		fmt.Fprintf(&b, "{n=%d min=%.4g max=%.4g mean=%.4g}", len(t.data), mn, mx, t.Mean())
	}
	return b.String()
}

// MinMax returns the smallest and largest elements. It panics on an
// empty tensor.
func (t *Tensor) MinMax() (min, max float64) {
	if len(t.data) == 0 {
		panic("tensor: MinMax of empty tensor")
	}
	min, max = t.data[0], t.data[0]
	for _, v := range t.data[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Std returns the population standard deviation of the elements.
func (t *Tensor) Std() float64 {
	if len(t.data) == 0 {
		return 0
	}
	m := t.Mean()
	s := 0.0
	for _, v := range t.data {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(t.data)))
}

// AbsMax returns the largest absolute element value (0 for empty tensors).
func (t *Tensor) AbsMax() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// ArgMax returns the flat index of the largest element. Ties resolve to
// the lowest index. It panics on an empty tensor.
func (t *Tensor) ArgMax() int {
	if len(t.data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.data[0], 0
	for i, v := range t.data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}
