package main

import (
	"regexp"
	"strings"
	"testing"

	"github.com/ccnet/ccnet/internal/clitest"
)

// TestRun exercises the CLI contract: -version exits 0, bad flags exit 2
// with usage text, bad values (an unknown name, a buffer depth below 1, a
// traffic fraction outside [0,1]) exit 1 with a named error, and a tiny
// simulation succeeds, with the paper's single-flit buffers and with
// 4-flit ones, and prints each branch's stage split.
func TestRun(t *testing.T) {
	clitest.Table(t, run, []clitest.Case{
		{Name: "version", Args: []string{"-version"}, WantCode: 0, WantStdout: "ccsim version"},
		{Name: "help", Args: []string{"-h"}, WantCode: 0, WantStderr: "Usage of ccsim"},
		{Name: "badFlag", Args: []string{"-no-such-flag"}, WantCode: 2, WantStderr: "flag provided but not defined"},
		{Name: "badFlagUsage", Args: []string{"-no-such-flag"}, WantCode: 2, WantStderr: "Usage of ccsim"},
		{Name: "unknownSystem", Args: []string{"-system", "bogus"}, WantCode: 1, WantStderr: `unknown system "bogus"`},
		{Name: "unknownPattern", Args: []string{"-system", "small", "-pattern", "bogus"}, WantCode: 1, WantStderr: `unknown pattern "bogus"`},
		{Name: "tinySim", Args: []string{"-system", "small", "-lambda", "1e-4", "-warmup", "10", "-measure", "100"}, WantCode: 0, WantStdout: "mean latency"},
		{Name: "bufferDepthZero", Args: []string{"-system", "small", "-buffer-depth", "0"}, WantCode: 1, WantStderr: "ccsim: -buffer-depth must be >= 1, got 0"},
		{Name: "bufferDepthNegative", Args: []string{"-system", "small", "-buffer-depth", "-1"}, WantCode: 1, WantStderr: "ccsim: -buffer-depth must be >= 1, got -1"},
		{Name: "hotspotFractionAboveOne", Args: []string{"-system", "small", "-pattern", "hotspot", "-hotspot-p", "2"}, WantCode: 1, WantStderr: "ccsim: -hotspot-p must be in [0,1], got 2"},
		{Name: "localFractionAboveOne", Args: []string{"-system", "small", "-pattern", "local", "-local-p", "1.5"}, WantCode: 1, WantStderr: "ccsim: -local-p must be in [0,1], got 1.5"},
		{Name: "stageSplit", Args: []string{"-system", "small", "-lambda", "1e-4", "-warmup", "10", "-measure", "100"}, WantCode: 0, WantStdout: "inter stages : source wait "},
		{Name: "deepBuffers", Args: []string{"-system", "small", "-lambda", "1e-4", "-warmup", "10", "-measure", "100", "-buffer-depth", "4"}, WantCode: 0, WantStdout: "mean latency"},
	})
}

// TestOutputDeterministic runs one simulation twice: everything but the
// wall-clock cost line is byte-identical, the channel listing included,
// whose many equal utilizations at this light load are ordered by name.
func TestOutputDeterministic(t *testing.T) {
	cost := regexp.MustCompile(`(?m)^cost .*\n`)
	out := func() string {
		got := clitest.Run(run, "-system", "small", "-lambda", "1e-6", "-warmup", "5", "-measure", "20", "-top-channels", "500")
		if got.Code != 0 {
			t.Fatalf("exit %d: %s", got.Code, got.Stderr)
		}
		return cost.ReplaceAllString(got.Stdout, "")
	}
	a, b := out(), out()
	if !strings.Contains(a, "top 500 channels by utilization") {
		t.Fatalf("no channel listing in stdout:\n%s", a)
	}
	if a != b {
		t.Fatalf("two runs of one simulation printed different output:\n%s\n---\n%s", a, b)
	}
}
