package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/encoding"
)

// matMulRef is the plain i-k-j zero-skip kernel MatMulInto replaced. It
// defines the answer bits: each output element is +0 plus every nonzero
// a[i,k]*b[k,j], added one at a time in ascending k. The product is
// converted explicitly so no architecture fuses it into the add.
func matMulRef(dst, a, b *Tensor) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := range drow {
			drow[j] = 0
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				drow[j] += float64(av * bv)
			}
		}
	}
}

// fillSparse fills t with values of mixed sign and magnitude, a share
// zeroFrac of them zero (±0 alike) and the occasional NaN or ±Inf when
// special is set.
func fillSparse(rng *rand.Rand, t *Tensor, zeroFrac float64, special bool) {
	for i := range t.Data {
		r := rng.Float64()
		switch {
		case r < zeroFrac/2:
			t.Data[i] = 0
		case r < zeroFrac:
			t.Data[i] = math.Copysign(0, -1)
		case special && r < zeroFrac+0.01:
			t.Data[i] = math.NaN()
		case special && r < zeroFrac+0.02:
			t.Data[i] = math.Inf(1 - 2*rng.Intn(2))
		default:
			t.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
}

// TestMatMulIntoBitwiseEqualsReference pins MatMulInto to the reference
// kernel bit for bit over random shapes (inner widths that are and are
// not multiples of four), sparsities from dense to one-hot-like, and
// signed zeros, NaN and infinities (a NaN must stay a NaN). The
// fused≡sequential pins run MatMulInto on both sides, so only this test
// catches kernel drift.
func TestMatMulIntoBitwiseEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for c := 0; c < 600; c++ {
		rows := 1 + rng.Intn(9)
		inner := 1 + rng.Intn(70)
		cols := []int{1, 7, 32}[c%3]
		zeroFrac := []float64{0, 0.5, 0.8}[(c/3)%3]
		special := c%2 == 1
		a, b := NewTensor(rows, inner), NewTensor(inner, cols)
		fillSparse(rng, a, zeroFrac, special)
		fillSparse(rng, b, zeroFrac/2, special)
		got, want := NewTensor(rows, cols), NewTensor(rows, cols)
		for i := range got.Data {
			got.Data[i] = math.NaN() // MatMulInto must overwrite stale scratch
		}
		MatMulInto(got, a, b)
		matMulRef(want, a, b)
		for i := range want.Data {
			g, w := got.Data[i], want.Data[i]
			if math.IsNaN(g) && math.IsNaN(w) {
				// Go leaves NaN payloads unspecified: which operand's
				// payload an add keeps is the compiler's operand order.
				continue
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("case %d (%dx%d @ %dx%d, zeros %.0f%%, special %v): elem %d = %v (%#x), reference %v (%#x)",
					c, rows, inner, inner, cols, zeroFrac*100, special, i,
					g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// tapeMatMulBackwardRef is the At-based backward closure Tape.MatMul
// replaced, kept as the reference for its gradient bits: dA += dOut @ B^T
// and dB += A^T @ dOut, each gradient element summed in one accumulator
// from +0 and then added once.
func tapeMatMulBackwardRef(a, b, out *Var) {
	for i := 0; i < a.Val.Rows; i++ {
		for k := 0; k < a.Val.Cols; k++ {
			g := 0.0
			for j := 0; j < b.Val.Cols; j++ {
				g += float64(out.Grad.At(i, j) * b.Val.At(k, j))
			}
			a.Grad.Data[i*a.Val.Cols+k] += g
		}
	}
	for k := 0; k < b.Val.Rows; k++ {
		for j := 0; j < b.Val.Cols; j++ {
			g := 0.0
			for i := 0; i < a.Val.Rows; i++ {
				g += float64(a.Val.At(i, k) * out.Grad.At(i, j))
			}
			b.Grad.Data[k*b.Val.Cols+j] += g
		}
	}
}

// TestTapeMatMulBackwardBitwiseEqualsReference pins the slice-indexed
// MatMul backward closure to the At-based reference bit for bit at the
// model's shapes (one-hot operator features, ReLU-sparse and dense hidden
// rows into 32 outputs) and at a several-row product, with values of
// both signs, signed zeros in a and dOut, and gradients that start at
// zero or already hold values. Values are finite: the row update skips
// a[k] == 0, which differs from the reference only where dOut holds an
// infinity or NaN (0·Inf is NaN).
func TestTapeMatMulBackwardBitwiseEqualsReference(t *testing.T) {
	type shape struct {
		name              string
		rows, inner, cols int
		zeroFrac          float64
		oneHot            bool
	}
	shapes := []shape{
		{"1xFx32 one-hot", 1, encoding.OpFeatDim, 32, 0, true},
		{"1x32x32 relu", 1, 32, 32, 0.5, false},
		{"1x64x32 dense", 1, 64, 32, 0, false},
		{"3x5x4 rows", 3, 5, 4, 0.3, false},
	}
	rng := rand.New(rand.NewSource(14))
	for _, s := range shapes {
		for c := 0; c < 50; c++ {
			aVal, bVal := NewTensor(s.rows, s.inner), NewTensor(s.inner, s.cols)
			if s.oneHot {
				aVal.Data[rng.Intn(s.inner)] = rng.NormFloat64()
			} else {
				fillSparse(rng, aVal, s.zeroFrac, false)
			}
			fillSparse(rng, bVal, 0, false)
			// Gradient accumulators start at +0 (fresh) or hold earlier
			// contributions; they are never -0.
			aGrad, bGrad := NewTensor(s.rows, s.inner), NewTensor(s.inner, s.cols)
			if c%2 == 1 {
				for _, g := range []*Tensor{aGrad, bGrad} {
					for i := range g.Data {
						if rng.Intn(4) > 0 {
							g.Data[i] = rng.NormFloat64()
						}
					}
				}
			}
			dOut := NewTensor(s.rows, s.cols)
			fillSparse(rng, dOut, 0.2, false)

			tp := NewTape()
			a, b := tp.Leaf(aVal, aGrad.Clone()), tp.Leaf(bVal, bGrad.Clone())
			out := tp.MatMul(a, b)
			copy(out.Grad.Data, dOut.Data)
			tp.backward[len(tp.backward)-1]()

			ra, rb := &Var{Val: aVal, Grad: aGrad}, &Var{Val: bVal, Grad: bGrad}
			tapeMatMulBackwardRef(ra, rb, &Var{Val: out.Val, Grad: dOut})

			for _, p := range []struct {
				name      string
				got, want *Tensor
			}{{"a.Grad", a.Grad, ra.Grad}, {"b.Grad", b.Grad, rb.Grad}} {
				for i := range p.want.Data {
					g, w := p.got.Data[i], p.want.Data[i]
					if math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s case %d: %s elem %d = %v (%#x), reference %v (%#x)",
							s.name, c, p.name, i, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		}
	}
}
