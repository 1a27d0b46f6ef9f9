package main

import (
	"reflect"
	"strconv"
	"testing"

	"ibasim/internal/experiments"
)

// TestParseListErrors pins the texts ibbench prints for a bad list
// flag: integer and float lists name the whole flag value, and a bad
// pattern's own error passes through unchanged.
func TestParseListErrors(t *testing.T) {
	if _, err := parseList("8,x", "integer", strconv.Atoi); err == nil ||
		err.Error() != `bad integer list "8,x": strconv.Atoi: parsing "x": invalid syntax` {
		t.Errorf("integer list error = %v", err)
	}
	if _, err := parseList("0,zz", "float", parseFloat); err == nil ||
		err.Error() != `bad float list "0,zz": strconv.ParseFloat: parsing "zz": invalid syntax` {
		t.Errorf("float list error = %v", err)
	}
	if _, err := parseList("uniform,bogus", "", experiments.ParsePattern); err == nil ||
		err.Error() != `experiments: unknown pattern "bogus"` {
		t.Errorf("pattern list error = %v", err)
	}
}

// TestParseListSkipsEmptyItems: blank items and surrounding spaces are
// ignored, so "8, ,16," is the list 8, 16 and "" is no list.
func TestParseListSkipsEmptyItems(t *testing.T) {
	got, err := parseList(" 8, ,16,", "integer", strconv.Atoi)
	if err != nil || !reflect.DeepEqual(got, []int{8, 16}) {
		t.Errorf(`parseList(" 8, ,16,") = %v, %v; want [8 16]`, got, err)
	}
	fracs, err := parseList("0, 0.5,,1", "float", parseFloat)
	if err != nil || !reflect.DeepEqual(fracs, []float64{0, 0.5, 1}) {
		t.Errorf(`parseList("0, 0.5,,1") = %v, %v; want [0 0.5 1]`, fracs, err)
	}
	pats, err := parseList("uniform,,hot-spot:0.1", "", experiments.ParsePattern)
	want := []experiments.PatternSpec{{Kind: "uniform"}, {Kind: "hot-spot", Fraction: 0.1}}
	if err != nil || !reflect.DeepEqual(pats, want) {
		t.Errorf("pattern list = %v, %v; want %v", pats, err, want)
	}
	if empty, err := parseList(",", "integer", strconv.Atoi); err != nil || len(empty) != 0 {
		t.Errorf(`parseList(",") = %v, %v; want an empty list`, empty, err)
	}
}
