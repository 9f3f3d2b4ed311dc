// Package vtime defines the virtual-time representation used throughout the
// simulator.
//
// SiMany expresses every cost in processor cycles, but some architecture
// parameters are sub-cycle (the clustered configurations of the paper use
// 0.5-cycle intra-cluster link latencies). Time is therefore carried as a
// fixed-point count of millicycles: exact for every parameter in the paper
// and with ~9.2e15 cycles of range, far beyond any simulated program.
package vtime

import (
	"fmt"
	"math"
	"strconv"
)

// Time is a virtual time or duration, in millicycles.
type Time int64

// Cycle is one processor cycle expressed in Time units.
const Cycle Time = 1000

// Inf is a virtual time later than any reachable simulation time.
const Inf Time = math.MaxInt64

// Cycles converts a (possibly fractional) cycle count to a Time.
func Cycles(c float64) Time {
	return Time(math.Round(c * float64(Cycle)))
}

// ParseCycles parses a non-negative, possibly fractional cycle count, as
// written in topology specs, adjacency and machine files and policy
// arguments. It rejects NaN, infinities, negatives, values too large for
// Time, and positive values that round to zero millicycles: a parameter
// given as nonzero must not silently become 0.
func ParseCycles(s string) (Time, error) {
	f, err := strconv.ParseFloat(s, 64)
	switch {
	case err != nil || math.IsNaN(f) || f < 0:
		return 0, fmt.Errorf("bad cycle count %q", s)
	case f*float64(Cycle) >= float64(Inf): // +Inf included
		return 0, fmt.Errorf("cycle count %q out of range", s)
	}
	t := Cycles(f)
	if t == 0 && f > 0 {
		return 0, fmt.Errorf("cycle count %q is below the %v resolution", s, Time(1))
	}
	return t, nil
}

// CyclesInt converts a whole cycle count to a Time.
func CyclesInt(c int64) Time {
	return Time(c) * Cycle
}

// InCycles reports t as a float64 number of cycles.
func (t Time) InCycles() float64 {
	return float64(t) / float64(Cycle)
}

// WholeCycles reports t rounded to the nearest whole cycle.
func (t Time) WholeCycles() int64 {
	half := int64(Cycle) / 2
	v := int64(t)
	if v >= 0 {
		return (v + half) / int64(Cycle)
	}
	return (v - half) / int64(Cycle)
}

// Scale multiplies t by f, rounding to the nearest unit. It is used for
// polymorphic cores whose computation costs scale with the inverse of their
// speed factor.
func (t Time) Scale(f float64) Time {
	if t == Inf {
		return Inf
	}
	return Time(math.Round(float64(t) * f))
}

// String formats the time as a cycle count.
func (t Time) String() string {
	if t == Inf {
		return "+inf"
	}
	if t%Cycle == 0 {
		return fmt.Sprintf("%dcy", int64(t/Cycle))
	}
	return fmt.Sprintf("%.3fcy", t.InCycles())
}

// Ratio returns num/den as a dimensionless float. It is the sanctioned way
// to compare two virtual times (speedups, utilizations, relative errors)
// without stripping the millicycle unit at the call site: the unit cancels
// inside the division. den == 0 yields ±Inf/NaN per IEEE-754, matching a
// direct float division.
func Ratio(num, den Time) float64 {
	return float64(num) / float64(den)
}

// Min returns the smaller of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
