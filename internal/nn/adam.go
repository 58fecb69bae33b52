package nn

import "math"

// Adam implements the Adam optimizer over a fixed parameter set.
type Adam struct {
	params []*Param
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	// ClipNorm, when positive, rescales the global gradient norm to at
	// most this value before stepping.
	ClipNorm float64
	t        int
}

// NewAdam creates an Adam optimizer with standard hyperparameters.
func NewAdam(params []*Param, lr float64) *Adam {
	return &Adam{params: params, LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, ClipNorm: 5}
}

// ZeroGrad clears all parameter gradients; call after each Step.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.Grad.Zero()
	}
}

// GradNorm returns the global L2 norm of all parameter gradients.
func (a *Adam) GradNorm() float64 {
	s := 0.0
	for _, p := range a.params {
		for _, g := range p.Grad.Data {
			s += float64(g * g)
		}
	}
	return math.Sqrt(s)
}

// Step applies one Adam update from the accumulated gradients. scale
// divides the gradients first (pass the batch size for mean-gradient
// semantics).
func (a *Adam) Step(scale float64) {
	if scale <= 0 {
		scale = 1
	}
	inv := 1 / scale
	if a.ClipNorm > 0 {
		norm := a.GradNorm() * inv
		if norm > a.ClipNorm {
			inv *= a.ClipNorm / norm
		}
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range a.params {
		for i, g := range p.Grad.Data {
			g *= inv
			p.m.Data[i] = float64(a.Beta1*p.m.Data[i]) + float64((1-a.Beta1)*g)
			p.v.Data[i] = float64(a.Beta2*p.v.Data[i]) + float64((1-a.Beta2)*g*g)
			mHat := p.m.Data[i] / c1
			vHat := p.v.Data[i] / c2
			p.Val.Data[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
}
