// Package timing provides the instruction-block timing annotations that
// drive SiMany's virtual clock.
//
// The paper groups ISA instructions into classes sharing a single time
// value (unconditional branches, conditional branches, common integer
// arithmetic, integer multiply, simple floating-point arithmetic and
// floating-point multiply and divide, §V). Branch prediction is handled
// specially: statically predictable branches carry their effect in the
// annotation; others use a probabilistic predictor with a 90% success rate
// and a 5-cycle mispredict penalty on a 5-stage pipeline.
package timing

import (
	"math/rand"

	"simany/internal/rng"
	"simany/internal/vtime"
)

// Class enumerates instruction classes.
type Class int

const (
	// IntALU is common integer arithmetic/logic.
	IntALU Class = iota
	// IntMul is integer multiplication.
	IntMul
	// IntDiv is integer division.
	IntDiv
	// FPALU is simple floating-point arithmetic (add/sub/compare).
	FPALU
	// FPMul is floating-point multiplication.
	FPMul
	// FPDiv is floating-point division.
	FPDiv
	// BranchUncond is an unconditional branch (statically predicted).
	BranchUncond
	// BranchCond is a conditional branch (probabilistically predicted).
	BranchCond
	// NumClasses is the number of instruction classes.
	NumClasses
)

var classNames = [NumClasses]string{
	"int-alu", "int-mul", "int-div", "fp-alu", "fp-mul", "fp-div",
	"branch-uncond", "branch-cond",
}

// String returns the class name.
func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return "invalid-class"
	}
	return classNames[c]
}

// Counts is an aggregate instruction count for a code block, indexed by
// Class.
type Counts [NumClasses]int64

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	for i := range c {
		c[i] += other[i]
	}
}

// Total returns the total instruction count.
func (c Counts) Total() int64 {
	var t int64
	for _, v := range c {
		t += v
	}
	return t
}

// CostModel maps instruction classes to per-instruction costs and carries
// the branch-prediction parameters of §V.
type CostModel struct {
	// Cost is the per-instruction cost for each class, excluding branch
	// misprediction penalties.
	Cost [NumClasses]vtime.Time
	// MispredictPenalty is the pipeline-flush cost of a mispredicted
	// branch (5 cycles for the 5-stage PowerPC 405 pipeline).
	MispredictPenalty vtime.Time
	// PredictRate is the success probability of the dynamic predictor for
	// conditional branches whose outcome is not statically known (0.90 in
	// the paper).
	PredictRate float64
}

// PPC405 returns the PowerPC-405-flavoured cost model of §V: a scalar
// 5-stage pipeline where common operations take a cycle and multiplies and
// divides are multi-cycle, with a 90% predictor and 5-cycle penalty.
func PPC405() *CostModel {
	m := &CostModel{
		MispredictPenalty: vtime.CyclesInt(5),
		PredictRate:       0.90,
	}
	m.Cost[IntALU] = vtime.CyclesInt(1)
	m.Cost[IntMul] = vtime.CyclesInt(4)
	m.Cost[IntDiv] = vtime.CyclesInt(35)
	m.Cost[FPALU] = vtime.CyclesInt(4) // software-assisted FP on a 405-class core
	m.Cost[FPMul] = vtime.CyclesInt(6)
	m.Cost[FPDiv] = vtime.CyclesInt(30)
	m.Cost[BranchUncond] = vtime.CyclesInt(1)
	m.Cost[BranchCond] = vtime.CyclesInt(1)
	return m
}

// BlockCost returns the statically-determined cost of an instruction block:
// the per-class costs, excluding dynamic branch misprediction effects
// (added separately by a Predictor).
func (m *CostModel) BlockCost(c Counts) vtime.Time {
	var t vtime.Time
	for cls, n := range c {
		t += m.Cost[cls] * vtime.Time(n)
	}
	return t
}

// Predictor models dynamic branch prediction outcomes for conditional
// branches. Implementations must be deterministic for a fixed seed / input
// sequence.
type Predictor interface {
	// Mispredicts returns how many of n conditional branches were
	// mispredicted.
	Mispredicts(n int64) int64
}

// ProbabilisticPredictor is SiMany's predictor: each conditional branch is
// mispredicted independently with probability 1-rate. For large n it uses
// the expected value to stay O(1); below the threshold it draws per-branch
// for realistic variance.
type ProbabilisticPredictor struct {
	Rate float64
	// rng is a serializable counter-based generator: its exact stream
	// position is a single uint64, so predictor state survives a
	// checkpoint/restore round trip.
	rng rng.Rand
}

// NewProbabilisticPredictor creates a predictor with the given success rate
// and seed.
func NewProbabilisticPredictor(rate float64, seed int64) *ProbabilisticPredictor {
	return &ProbabilisticPredictor{Rate: rate, rng: *rng.New(uint64(seed))}
}

// RngState exposes the predictor's random-stream position for
// checkpointing.
func (p *ProbabilisticPredictor) RngState() uint64 { return p.rng.State() }

// samplingThreshold bounds the per-branch sampling work; larger blocks use
// the expectation, which the law of large numbers makes indistinguishable.
const samplingThreshold = 64

// Mispredicts implements Predictor.
func (p *ProbabilisticPredictor) Mispredicts(n int64) int64 {
	if n <= 0 {
		return 0
	}
	missRate := 1 - p.Rate
	if n > samplingThreshold {
		return int64(float64(n)*missRate + 0.5)
	}
	var m int64
	for i := int64(0); i < n; i++ {
		if p.rng.Float64() < missRate {
			m++
		}
	}
	return m
}

// TwoBitPredictor is the deterministic 2-bit saturating-counter predictor
// used by the cycle-level reference simulator. Branch outcomes are derived
// from a per-call pseudo-random but deterministic taken pattern seeded by
// the caller, so that the reference and SiMany see the same workload but
// time it differently.
type TwoBitPredictor struct {
	state   uint8 // 0,1 = predict not taken; 2,3 = predict taken
	pattern *rand.Rand
	bias    float64 // probability a branch is actually taken
}

// NewTwoBitPredictor creates a 2-bit predictor whose branch streams are
// taken with probability bias.
func NewTwoBitPredictor(bias float64, seed int64) *TwoBitPredictor {
	return &TwoBitPredictor{state: 2, pattern: rand.New(rand.NewSource(seed)), bias: bias}
}

// Mispredicts implements Predictor by running n branches through the
// saturating counter.
func (p *TwoBitPredictor) Mispredicts(n int64) int64 {
	var m int64
	for i := int64(0); i < n; i++ {
		taken := p.pattern.Float64() < p.bias
		predictTaken := p.state >= 2
		if taken != predictTaken {
			m++
		}
		if taken {
			if p.state < 3 {
				p.state++
			}
		} else if p.state > 0 {
			p.state--
		}
	}
	return m
}

// BlockTimer combines a cost model and a predictor into the complete
// annotation evaluator used by a simulated core.
type BlockTimer struct {
	//simany:derived immutable cost tables, reinstated with the configuration
	Model     *CostModel
	Predictor Predictor
}

// NewBlockTimer builds a BlockTimer.
func NewBlockTimer(m *CostModel, p Predictor) *BlockTimer {
	return &BlockTimer{Model: m, Predictor: p}
}

// Time returns the virtual duration of an instruction block: static class
// costs plus dynamic misprediction penalties for the conditional branches.
func (bt *BlockTimer) Time(c Counts) vtime.Time {
	t := bt.Model.BlockCost(c)
	if n := c[BranchCond]; n > 0 && bt.Predictor != nil {
		t += bt.Model.MispredictPenalty * vtime.Time(bt.Predictor.Mispredicts(n))
	}
	return t
}
