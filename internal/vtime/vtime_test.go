package vtime

import (
	"testing"
	"testing/quick"
)

func TestCyclesRoundTrip(t *testing.T) {
	cases := []float64{0, 0.5, 1, 4, 10, 100, 1000, 0.001}
	for _, c := range cases {
		got := Cycles(c).InCycles()
		if got != c {
			t.Errorf("Cycles(%v).InCycles() = %v", c, got)
		}
	}
}

func TestCyclesInt(t *testing.T) {
	if CyclesInt(7) != 7*Cycle {
		t.Fatalf("CyclesInt(7) = %v", CyclesInt(7))
	}
}

func TestWholeCycles(t *testing.T) {
	cases := []struct {
		in   Time
		want int64
	}{
		{0, 0},
		{Cycle, 1},
		{Cycle + Cycle/2, 2},     // 1.5 rounds to 2
		{Cycle + Cycle/2 - 1, 1}, // just below 1.5 rounds to 1
		{-Cycle, -1},
		{10 * Cycle, 10},
	}
	for _, c := range cases {
		if got := c.in.WholeCycles(); got != c.want {
			t.Errorf("WholeCycles(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestScale(t *testing.T) {
	if got := CyclesInt(10).Scale(2); got != CyclesInt(20) {
		t.Errorf("10cy*2 = %v", got)
	}
	if got := CyclesInt(3).Scale(1.0 / 1.5); got != CyclesInt(2) {
		t.Errorf("3cy/1.5 = %v", got)
	}
	if got := Inf.Scale(0.5); got != Inf {
		t.Errorf("Inf.Scale = %v, want Inf", got)
	}
}

func TestMinMax(t *testing.T) {
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Min broken")
	}
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Max broken")
	}
}

func TestString(t *testing.T) {
	if s := CyclesInt(42).String(); s != "42cy" {
		t.Errorf("String() = %q", s)
	}
	if s := Cycles(0.5).String(); s != "0.500cy" {
		t.Errorf("String() = %q", s)
	}
	if s := Inf.String(); s != "+inf" {
		t.Errorf("String() = %q", s)
	}
}

func TestMinMaxProperties(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Time(a), Time(b)
		mn, mx := Min(x, y), Max(x, y)
		return mn <= mx && (mn == x || mn == y) && (mx == x || mx == y) && mn+mx == x+y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWholeCyclesMonotone(t *testing.T) {
	f := func(a int32) bool {
		t1 := Time(a)
		return t1.WholeCycles() <= (t1 + Cycle).WholeCycles()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseCycles(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Time
	}{
		{"0", 0},
		{"1", Cycle},
		{"0.5", Cycle / 2},
		{"0.001", 1},
		{"1e3", 1000 * Cycle},
	} {
		got, err := ParseCycles(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseCycles(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{
		"", "x", "1cy", "nan", "NaN", "inf", "+Inf", "-inf", "1e300", "1e400",
		"-1", "-0.5", "0.0001", "1e-9", "9223372036854776",
	} {
		if got, err := ParseCycles(in); err == nil {
			t.Errorf("ParseCycles(%q) = %v, want an error", in, got)
		}
	}
}
