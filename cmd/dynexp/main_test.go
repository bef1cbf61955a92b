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
