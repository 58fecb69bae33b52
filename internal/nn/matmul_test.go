package nn

import (
	"math"
	"math/rand"
	"testing"
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
