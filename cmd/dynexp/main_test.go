package main

import (
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

// TestMain doubles as the dynexp binary: with DYNEXP_TEST_ARGS set, the test
// executable runs main on those newline-separated arguments, so a test can
// check exit status and output without building the command separately.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("DYNEXP_TEST_ARGS"); ok {
		os.Args = append([]string{"dynexp"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadInputExitsWithAnError: input the program cannot run is reported as
// an error with a non-zero exit (2 for a flag the subcommand does not read),
// never as a panic or a runtime deadlock.
func TestBadInputExitsWithAnError(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
		code int
	}{
		{[]string{"-fault", "crash:node=9", "trace"}, "node 9 out of range [0,4)", 1},
		{[]string{"-smoke", "-grid", "scen=cg;resize=grow", "-jobs", "1", "sweep"}, "resize grow needs mid-run joiners, which scenario cg does not support", 1},
		{[]string{"-paper", "alloc"}, "-paper: alloc does not read it", 2},
		{[]string{"-nodes", "8", "fig5"}, "-nodes: fig5 does not read it", 2},
		{[]string{"-fault", "crash:node=2,cycle=12", "virt"}, "-fault: virt does not read it", 2},
		{[]string{"-smoke", "fig4"}, "-smoke: fig4 does not read it", 2},
		{[]string{"-scale-n", "64", "trace"}, "-scale-n: trace does not read it", 2},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "DYNEXP_TEST_ARGS="+strings.Join(tc.args, "\n"))
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != tc.code {
			t.Errorf("dynexp %v: err %v, want exit status %d", tc.args, err, tc.code)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("dynexp %v: output %q lacks %q", tc.args, out, tc.want)
		}
		for _, bad := range []string{"panic", "fatal error", "goroutine "} {
			if strings.Contains(string(out), bad) {
				t.Errorf("dynexp %v: output contains %q:\n%s", tc.args, bad, out)
			}
		}
	}
}

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
