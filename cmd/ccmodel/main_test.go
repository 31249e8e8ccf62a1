package main

import (
	"testing"

	"github.com/ccnet/ccnet/internal/clitest"
)

// TestRun exercises the CLI contract: -version exits 0, bad flags exit 2
// with usage text, bad values (an unknown name, a λ grid core.LambdaGrid
// cannot build) exit 1 with a named error, and a small real sweep
// succeeds.
func TestRun(t *testing.T) {
	clitest.Table(t, run, []clitest.Case{
		{Name: "version", Args: []string{"-version"}, WantCode: 0, WantStdout: "ccmodel version"},
		{Name: "help", Args: []string{"-h"}, WantCode: 0, WantStderr: "Usage of ccmodel"},
		{Name: "badFlag", Args: []string{"-no-such-flag"}, WantCode: 2, WantStderr: "flag provided but not defined"},
		{Name: "badFlagUsage", Args: []string{"-no-such-flag"}, WantCode: 2, WantStderr: "Usage of ccmodel"},
		{Name: "unknownSystem", Args: []string{"-system", "bogus"}, WantCode: 1, WantStderr: `unknown system "bogus"`},
		{Name: "unknownVariant", Args: []string{"-system", "small", "-variant", "bogus"}, WantCode: 1, WantStderr: `unknown variant "bogus"`},
		{Name: "onePoint", Args: []string{"-system", "small", "-points", "1"}, WantCode: 1, WantStderr: "ccmodel: -points must be >= 2, got 1"},
		{Name: "negativeFrom", Args: []string{"-system", "small", "-from", "-1"}, WantCode: 1, WantStderr: "ccmodel: -from must be >= 0, got -1"},
		{Name: "fromNotBelowTo", Args: []string{"-system", "small", "-from", "1e-4", "-to", "1e-4"}, WantCode: 1, WantStderr: "ccmodel: -to must be above -from, got -from 0.0001 -to 0.0001"},
		{Name: "smallSweep", Args: []string{"-system", "small", "-from", "1e-5", "-to", "1e-4", "-points", "3"}, WantCode: 0, WantStdout: "saturation point"},
	})
}
