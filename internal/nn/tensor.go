// Package nn is a small neural-network library built for this reproduction:
// dense float64 tensors, tape-based reverse-mode automatic differentiation,
// linear layers and MLPs, the Adam optimizer, and gob model serialization.
//
// It substitutes for the PyTorch stack the paper's prototype uses ("no GNN
// training ecosystem" exists for offline stdlib-only Go). The dynamic tape
// is what makes the zero-shot model possible: every query plan is a
// different DAG, so the computation graph must be rebuilt per sample, and
// gradients must flow through whatever structure was built.
//
// Every product that feeds an add is converted explicitly, as in
// float64(a*b). The Go spec lets a compiler fuse x*y + z into one
// multiply-add, which rounds once instead of twice; gc does so on arm64
// and ppc64le but never on amd64. The conversion forbids the fusion, so
// training and inference round identically on every architecture.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major matrix of float64.
type Tensor struct {
	Rows, Cols int
	Data       []float64
}

// NewTensor allocates a zeroed rows x cols tensor.
func NewTensor(rows, cols int) *Tensor {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: invalid tensor shape %dx%d", rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice builds a 1 x len(v) row vector copying v.
func FromSlice(v []float64) *Tensor {
	t := NewTensor(1, len(v))
	copy(t.Data, v)
	return t
}

// Wrap builds a rows x cols tensor viewing data without copying — the
// zero-copy bridge from externally packed feature matrices (e.g. an
// encoding.BatchGraph slab) into tensor operations. The caller keeps
// ownership of data.
func Wrap(rows, cols int, data []float64) *Tensor {
	if rows <= 0 || cols <= 0 || len(data) != rows*cols {
		panic(fmt.Sprintf("nn: Wrap shape %dx%d does not fit %d values", rows, cols, len(data)))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at (r, c).
func (t *Tensor) At(r, c int) float64 { return t.Data[r*t.Cols+c] }

// Set assigns the element at (r, c).
func (t *Tensor) Set(r, c int, v float64) { t.Data[r*t.Cols+c] = v }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	c := NewTensor(t.Rows, t.Cols)
	copy(c.Data, t.Data)
	return c
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// sameShape panics unless a and b have identical shapes; shape mismatches
// are programming errors, not runtime conditions.
func sameShape(a, b *Tensor, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// AddInPlace accumulates other into t.
func (t *Tensor) AddInPlace(other *Tensor) {
	sameShape(t, other, "add")
	for i, v := range other.Data {
		t.Data[i] += v
	}
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float64) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AddRowBroadcast adds the 1 x Cols row vector to every row of t — the
// inference-mode bias addition (the tape path adds the bias to one row
// at a time; per element the operation is identical).
func (t *Tensor) AddRowBroadcast(row *Tensor) {
	if row.Rows != 1 || row.Cols != t.Cols {
		panic(fmt.Sprintf("nn: broadcast add %dx%d onto %dx%d", row.Rows, row.Cols, t.Rows, t.Cols))
	}
	for r := 0; r < t.Rows; r++ {
		d := t.Data[r*t.Cols : (r+1)*t.Cols]
		for j, v := range row.Data {
			d[j] += v
		}
	}
}

// ReLUInPlace clamps negative elements to zero.
func (t *Tensor) ReLUInPlace() {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
}

// MatMulInto computes dst = a @ b, overwriting dst (which may hold
// arbitrary prior contents — each output row is zeroed before its
// accumulation, so uninitialized scratch is a valid destination). dst
// must be preallocated a.Rows x b.Cols.
//
// Zero entries of a are skipped (one-hot features and ReLU outputs are
// mostly zero). Every output element is +0 plus the products of a row's
// nonzero a[i,k] with b[k,j], added one at a time in ascending k: the
// kernel only batches four nonzeros per pass so the running sum stays in
// a register, which changes neither the addends nor their order. Each
// product is converted explicitly, which the Go spec says forbids fusing
// it with the add, so the rounding is the same on every architecture.
func MatMulInto(dst, a, b *Tensor) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmul shape mismatch %dx%d @ %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*n : (i+1)*n]
		clear(drow)
		var nz [4]int // pending nonzero columns of arow, ascending
		m := 0
		for k, av := range arow {
			if av == 0 {
				continue
			}
			nz[m] = k
			if m++; m < 4 {
				continue
			}
			m = 0
			a0, a1, a2, a3 := arow[nz[0]], arow[nz[1]], arow[nz[2]], arow[nz[3]]
			b0 := b.Data[nz[0]*n:][:len(drow)]
			b1 := b.Data[nz[1]*n:][:len(drow)]
			b2 := b.Data[nz[2]*n:][:len(drow)]
			b3 := b.Data[nz[3]*n:][:len(drow)]
			for j := range drow {
				d := drow[j]
				d += float64(a0 * b0[j])
				d += float64(a1 * b1[j])
				d += float64(a2 * b2[j])
				d += float64(a3 * b3[j])
				drow[j] = d
			}
		}
		for _, k := range nz[:m] {
			av := arow[k]
			brow := b.Data[k*n:][:len(drow)]
			for j, bv := range brow {
				drow[j] += float64(av * bv)
			}
		}
	}
}

// XavierInit fills the tensor with Glorot-uniform random values.
func (t *Tensor) XavierInit(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(t.Rows+t.Cols))
	for i := range t.Data {
		// rng.Float64 inlines a scaling product; rounding its result keeps
		// gc from fusing that product into the doubling.
		t.Data[i] = (float64(rng.Float64())*2 - 1) * limit
	}
}

// L2Norm returns the Euclidean norm of all elements.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}
