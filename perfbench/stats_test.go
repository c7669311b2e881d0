package main

import (
	"reflect"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 10, 1, 1000, 2}, 10},
	} {
		in := append([]float64(nil), c.xs...)
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
		if !reflect.DeepEqual(in, c.xs) {
			t.Errorf("median reordered its input to %v", c.xs)
		}
	}
}

func TestPercentile(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{ten, 10, 1},
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 95, 10},
		{ten, 100, 10},
		{hundred, 99, 99},
		{hundred, 99.9, 100},
		{[]float64{7}, 99, 7},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%d values, %v) = %v, want %v", len(c.xs), c.p, got, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{99, 0, false},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
}

func TestLayersSelfTime(t *testing.T) {
	// A 100 ns parent with children covering [10,40) and [30,60)
	// (overlapping: 50 ns together) and one reaching past its end at
	// [90,120) (10 ns inside): self time 100-50-10 = 40 ns.
	spans := []span{
		{Name: "job", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a", Start: 30, End: 60, Parent: 0},
		{Name: "b", Start: 90, End: 120, Parent: 0},
	}
	got := map[string]layer{}
	for _, l := range layers(spans) {
		got[l.Name] = l
	}
	want := map[string]layer{
		"job": {Name: "job", Count: 1, TotalMs: 100e-6, SelfMs: 40e-6},
		"a":   {Name: "a", Count: 2, TotalMs: 60e-6, SelfMs: 60e-6},
		"b":   {Name: "b", Count: 1, TotalMs: 30e-6, SelfMs: 30e-6},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("layers = %+v, want %+v", got, want)
	}
}
