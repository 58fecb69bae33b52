package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/encoding"
)

// BenchmarkMatMulInto times the kernel at the fused pass's shapes: one
// plan node or a 4096-node cold batch, fed by the operator features or a
// hidden layer, into a 32-wide layer. Half the inputs are zero, like a
// ReLU output. GFLOP/s counts the dense 2·rows·inner·32 operations.
func BenchmarkMatMulInto(b *testing.B) {
	const out = 32
	for _, rows := range []int{1, 4096} {
		for _, inner := range []int{encoding.OpFeatDim, 32, 64} {
			b.Run(fmt.Sprintf("%dx%dx%d", rows, inner, out), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				x := NewTensor(rows, inner)
				x.XavierInit(rng)
				x.ReLUInPlace()
				w := NewTensor(inner, out)
				w.XavierInit(rng)
				dst := NewTensor(rows, out)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMulInto(dst, x, w)
				}
				flops := 2 * float64(rows*inner*out) * float64(b.N)
				b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

func BenchmarkMLPForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	mlp := NewMLP(rng, 16, 32, 32, 1)
	x := NewTensor(1, 16)
	x.XavierInit(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		mlp.Apply(tp, tp.Const(x))
	}
}

func BenchmarkMLPTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	mlp := NewMLP(rng, 16, 32, 32, 1)
	opt := NewAdam(mlp.Params(), 1e-3)
	x := NewTensor(1, 16)
	x.XavierInit(rng)
	target := FromSlice([]float64{0.5})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		out := mlp.Apply(tp, tp.Const(x))
		loss := tp.HuberLoss(out, target, 1)
		tp.Backward(loss)
		opt.Step(1)
		opt.ZeroGrad()
	}
}
