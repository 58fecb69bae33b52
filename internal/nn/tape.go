package nn

import "math"

// Var is one node of the dynamic computation graph: a value tensor and its
// gradient. Vars are created through Tape operations.
type Var struct {
	Val  *Tensor
	Grad *Tensor
}

// Tape records operations for reverse-mode differentiation. Build the
// forward computation through Tape methods, then call Backward on the
// scalar loss. A Tape is built fresh per training sample, because plan
// graphs differ from sample to sample — but "fresh" does not have to
// mean "heap-allocated": Reset recycles every Var and Tensor struct and
// the float64 slab behind them, so a tape reused across samples reaches
// a steady state where the only per-sample allocations left are the
// backward closures themselves.
type Tape struct {
	backward []func()

	// Recycled scratch (see Reset): Var and Tensor structs plus one
	// float64 slab, reused across Reset cycles. used counters index the
	// next free struct; slabNeed records the total floats requested this
	// cycle so Reset can size the slab for the next one.
	vars     []*Var
	varsUsed int
	tensors  []*Tensor
	tensUsed int
	slab     []float64
	slabOff  int
	slabNeed int

	// gradRemap redirects Leaf gradient accumulation (see RemapGrads).
	gradRemap map[*Tensor]*Tensor
}

// NewTape creates an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset recycles the tape for the next sample: backward closures are
// dropped and every Var, Tensor and slab float handed out so far
// becomes reusable. Values produced by earlier operations are invalid
// after Reset. The gradient remap table survives — a worker binds its
// private buffers once and resets per sample.
func (tp *Tape) Reset() {
	tp.backward = tp.backward[:0]
	tp.varsUsed = 0
	tp.tensUsed = 0
	if tp.slabNeed > len(tp.slab) {
		tp.slab = make([]float64, tp.slabNeed)
	}
	tp.slabOff = 0
	tp.slabNeed = 0
}

// RemapGrads redirects Leaf gradient accumulation: a Leaf whose grad
// tensor appears as a key accumulates into the mapped tensor instead.
// This is how a data-parallel training worker binds shared parameters
// to its private GradSet buffers. The mapping persists across Reset;
// pass nil to clear it.
func (tp *Tape) RemapGrads(m map[*Tensor]*Tensor) { tp.gradRemap = m }

// scratch returns a zeroed length-n slice from the tape's slab, falling
// back to the heap when the slab is exhausted (Reset sizes the next
// slab from this cycle's total demand, so the fallback disappears at
// steady state).
func (tp *Tape) scratch(n int) []float64 {
	tp.slabNeed += n
	if tp.slabOff+n <= len(tp.slab) {
		s := tp.slab[tp.slabOff : tp.slabOff+n : tp.slabOff+n]
		tp.slabOff += n
		for i := range s {
			s[i] = 0
		}
		return s
	}
	return make([]float64, n)
}

// tensorStruct returns a recycled (or new) Tensor shell with no shape.
func (tp *Tape) tensorStruct() *Tensor {
	if tp.tensUsed < len(tp.tensors) {
		t := tp.tensors[tp.tensUsed]
		tp.tensUsed++
		return t
	}
	t := new(Tensor)
	tp.tensors = append(tp.tensors, t)
	tp.tensUsed++
	return t
}

// tensor returns a zeroed rows x cols tensor backed by tape scratch.
func (tp *Tape) tensor(rows, cols int) *Tensor {
	t := tp.tensorStruct()
	t.Rows, t.Cols = rows, cols
	t.Data = tp.scratch(rows * cols)
	return t
}

// cloneOf returns a tape-scratch copy of src.
func (tp *Tape) cloneOf(src *Tensor) *Tensor {
	t := tp.tensor(src.Rows, src.Cols)
	copy(t.Data, src.Data)
	return t
}

// varStruct returns a recycled (or new) Var shell.
func (tp *Tape) varStruct() *Var {
	if tp.varsUsed < len(tp.vars) {
		v := tp.vars[tp.varsUsed]
		tp.varsUsed++
		return v
	}
	v := new(Var)
	tp.vars = append(tp.vars, v)
	tp.varsUsed++
	return v
}

// newVar wraps val with a zeroed tape-scratch gradient of matching shape.
func (tp *Tape) newVar(val *Tensor) *Var {
	v := tp.varStruct()
	v.Val = val
	v.Grad = tp.tensor(val.Rows, val.Cols)
	return v
}

// Leaf wraps a tensor as a graph input whose gradient accumulates into the
// provided grad tensor (pass the persistent parameter gradient to train, or
// a scratch tensor for constants). An active RemapGrads table may redirect
// the accumulation into a worker-private buffer.
func (tp *Tape) Leaf(val, grad *Tensor) *Var {
	if pg, ok := tp.gradRemap[grad]; ok {
		grad = pg
	}
	sameShape(val, grad, "leaf")
	v := tp.varStruct()
	v.Val, v.Grad = val, grad
	return v
}

// Const wraps a tensor whose gradient is discarded.
func (tp *Tape) Const(val *Tensor) *Var { return tp.newVar(val) }

// ConstRow wraps data as a 1 x len(data) constant Var without copying —
// the zero-copy bridge from encoded feature vectors into the graph. The
// caller must not mutate data until Backward completes; tape operations
// never write through Val.
func (tp *Tape) ConstRow(data []float64) *Var {
	t := tp.tensorStruct()
	t.Rows, t.Cols, t.Data = 1, len(data), data
	return tp.newVar(t)
}

// MatMul returns a @ b.
func (tp *Tape) MatMul(a, b *Var) *Var {
	out := tp.newVar(tp.tensor(a.Val.Rows, b.Val.Cols))
	MatMulInto(out.Val, a.Val, b.Val)
	tp.backward = append(tp.backward, func() {
		// dA += dOut @ B^T ; dB += A^T @ dOut
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
	})
	return out
}

// Add returns a + b (same shape).
func (tp *Tape) Add(a, b *Var) *Var {
	sameShape(a.Val, b.Val, "Add")
	out := tp.newVar(tp.cloneOf(a.Val))
	out.Val.AddInPlace(b.Val)
	tp.backward = append(tp.backward, func() {
		a.Grad.AddInPlace(out.Grad)
		b.Grad.AddInPlace(out.Grad)
	})
	return out
}

// Sum returns the elementwise sum of one or more same-shaped Vars.
func (tp *Tape) Sum(vs ...*Var) *Var {
	if len(vs) == 0 {
		panic("nn: Sum of nothing")
	}
	out := tp.newVar(tp.cloneOf(vs[0].Val))
	for _, v := range vs[1:] {
		out.Val.AddInPlace(v.Val)
	}
	tp.backward = append(tp.backward, func() {
		for _, v := range vs {
			v.Grad.AddInPlace(out.Grad)
		}
	})
	return out
}

// ReLU returns max(x, 0) elementwise.
func (tp *Tape) ReLU(x *Var) *Var {
	out := tp.newVar(tp.cloneOf(x.Val))
	for i, v := range out.Val.Data {
		if v < 0 {
			out.Val.Data[i] = 0
		}
	}
	tp.backward = append(tp.backward, func() {
		for i := range x.Grad.Data {
			if x.Val.Data[i] > 0 {
				x.Grad.Data[i] += out.Grad.Data[i]
			}
		}
	})
	return out
}

// Concat concatenates row vectors (1 x n each) into one 1 x sum(n) vector.
func (tp *Tape) Concat(vs ...*Var) *Var {
	total := 0
	for _, v := range vs {
		if v.Val.Rows != 1 {
			panic("nn: Concat expects row vectors")
		}
		total += v.Val.Cols
	}
	out := tp.newVar(tp.tensor(1, total))
	off := 0
	for _, v := range vs {
		copy(out.Val.Data[off:off+v.Val.Cols], v.Val.Data)
		off += v.Val.Cols
	}
	tp.backward = append(tp.backward, func() {
		off := 0
		for _, v := range vs {
			for i := 0; i < v.Val.Cols; i++ {
				v.Grad.Data[i] += out.Grad.Data[off+i]
			}
			off += v.Val.Cols
		}
	})
	return out
}

// ScaleVar returns x * s for a constant scalar s.
func (tp *Tape) ScaleVar(x *Var, s float64) *Var {
	out := tp.newVar(tp.cloneOf(x.Val))
	out.Val.Scale(s)
	tp.backward = append(tp.backward, func() {
		for i := range x.Grad.Data {
			x.Grad.Data[i] += float64(out.Grad.Data[i] * s)
		}
	})
	return out
}

// MSE returns the scalar 0.5*(pred - target)^2 summed over elements, as a
// 1x1 Var. target is a constant.
func (tp *Tape) MSE(pred *Var, target *Tensor) *Var {
	sameShape(pred.Val, target, "MSE")
	out := tp.newVar(tp.tensor(1, 1))
	loss := 0.0
	for i, p := range pred.Val.Data {
		d := p - target.Data[i]
		loss += float64(0.5 * d * d)
	}
	out.Val.Data[0] = loss
	tp.backward = append(tp.backward, func() {
		g := out.Grad.Data[0]
		for i, p := range pred.Val.Data {
			pred.Grad.Data[i] += float64(g * (p - target.Data[i]))
		}
	})
	return out
}

// HuberLoss returns the scalar Huber loss (delta=1) of pred vs target as a
// 1x1 Var; more robust to runtime outliers than MSE.
func (tp *Tape) HuberLoss(pred *Var, target *Tensor, delta float64) *Var {
	sameShape(pred.Val, target, "Huber")
	out := tp.newVar(tp.tensor(1, 1))
	loss := 0.0
	for i, p := range pred.Val.Data {
		d := p - target.Data[i]
		if math.Abs(d) <= delta {
			loss += float64(0.5 * d * d)
		} else {
			loss += float64(delta * (math.Abs(d) - float64(0.5*delta)))
		}
	}
	out.Val.Data[0] = loss
	tp.backward = append(tp.backward, func() {
		g := out.Grad.Data[0]
		for i, p := range pred.Val.Data {
			d := p - target.Data[i]
			switch {
			case d > delta:
				pred.Grad.Data[i] += float64(g * delta)
			case d < -delta:
				pred.Grad.Data[i] -= float64(g * delta)
			default:
				pred.Grad.Data[i] += float64(g * d)
			}
		}
	})
	return out
}

// Backward seeds the loss gradient with 1 and replays the tape in reverse.
// loss must be a 1x1 Var produced by this tape.
func (tp *Tape) Backward(loss *Var) {
	if loss.Val.Rows != 1 || loss.Val.Cols != 1 {
		panic("nn: Backward expects a scalar loss")
	}
	loss.Grad.Data[0] = 1
	for i := len(tp.backward) - 1; i >= 0; i-- {
		tp.backward[i]()
	}
}
