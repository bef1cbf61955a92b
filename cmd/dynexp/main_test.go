package main

import (
	"reflect"
	"testing"
)

func TestParseNodes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
	}{
		{"", nil},
		{"8", []int{8}},
		{"8,64", []int{8, 64}},
		{" 4 , 16 ", []int{4, 16}},
	} {
		got, err := parseNodes(tc.in)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseNodes(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"8x", "x8", "8,", "0", "-4", "8;64", "1e3", "8 64"} {
		if got, err := parseNodes(bad); err == nil {
			t.Errorf("parseNodes(%q) = %v, want an error", bad, got)
		}
	}
}

func TestCheckCounts(t *testing.T) {
	// {replica-every, scale-n, jobs}
	for _, ok := range [][3]int{{0, 0, 4}, {1, 0, 1}, {0, 64, 8}, {3, 256, 4}} {
		if err := checkCounts(ok[0], ok[1], ok[2]); err != nil {
			t.Errorf("checkCounts(%v) = %v, want nil", ok, err)
		}
	}
	for _, bad := range [][3]int{{-3, 0, 4}, {0, -5, 4}, {-1, -1, 4}, {0, 0, 0}, {0, 0, -3}} {
		if err := checkCounts(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("checkCounts(%v) accepted a count out of range", bad)
		}
	}
}
