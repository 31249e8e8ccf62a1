package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/ccnet/ccnet/internal/clitest"
)

// TestRun exercises the CLI contract: -version exits 0, bad flags exit 2
// with usage text, bad values (an unknown name, a buffer depth below 1, a
// traffic fraction outside [0,1]) exit 1 with a named error, and a tiny
// simulation succeeds, with the paper's single-flit buffers and with
// 4-flit ones.
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
		{Name: "deepBuffers", Args: []string{"-system", "small", "-lambda", "1e-4", "-warmup", "10", "-measure", "100", "-buffer-depth", "4"}, WantCode: 0, WantStdout: "mean latency"},
	})
}

// TestTraceFlag checks -trace end to end: a .csv trace holds a header
// plus one row per generated message and a .jsonl trace one object per
// generated message (at this light load every generated message is
// delivered before the run stops), and a trace file that cannot be
// created or written fails the run with exit 1.
func TestTraceFlag(t *testing.T) {
	dir := t.TempDir()
	sim := []string{"-system", "small", "-lambda", "1e-4", "-warmup", "10", "-measure", "100"}
	generated := func(t *testing.T, stdout string) int {
		t.Helper()
		m := regexp.MustCompile(`generated\s+: (\d+) messages`).FindStringSubmatch(stdout)
		if m == nil {
			t.Fatalf("no generated count in stdout:\n%s", stdout)
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	lines := func(t *testing.T, path string) []string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	}

	t.Run("csv", func(t *testing.T) {
		path := filepath.Join(dir, "t.csv")
		got := clitest.Run(run, append(sim, "-trace", path)...)
		if got.Code != 0 {
			t.Fatalf("exit %d: %s", got.Code, got.Stderr)
		}
		rows := lines(t, path)
		if !strings.HasPrefix(rows[0], "id,src,dst,") {
			t.Fatalf("header = %q", rows[0])
		}
		if n := generated(t, got.Stdout); len(rows) != n+1 {
			t.Fatalf("%d lines for %d generated messages, want header + one row each", len(rows), n)
		}
	})
	t.Run("jsonl", func(t *testing.T) {
		path := filepath.Join(dir, "t.jsonl")
		got := clitest.Run(run, append(sim, "-trace", path)...)
		if got.Code != 0 {
			t.Fatalf("exit %d: %s", got.Code, got.Stderr)
		}
		rows := lines(t, path)
		if n := generated(t, got.Stdout); len(rows) != n {
			t.Fatalf("%d lines for %d generated messages", len(rows), n)
		}
		for i, row := range rows {
			var rec struct{ ID *uint64 }
			if err := json.Unmarshal([]byte(row), &rec); err != nil || rec.ID == nil {
				t.Fatalf("line %d is not a trace record: %q (%v)", i, row, err)
			}
		}
	})
	t.Run("uncreatable", func(t *testing.T) {
		path := filepath.Join(dir, "no-such-dir", "t.csv")
		got := clitest.Run(run, append(sim, "-trace", path)...)
		if got.Code != 1 || !strings.Contains(got.Stderr, "trace: ") {
			t.Fatalf("exit %d, stderr %q; want 1 and a trace error", got.Code, got.Stderr)
		}
	})
	t.Run("unwritable", func(t *testing.T) {
		// Every write to /dev/full fails, but these 25 rows fit in the
		// write buffer, so only the final Flush sees the failure.
		if _, err := os.Stat("/dev/full"); err != nil {
			t.Skip("no /dev/full on this platform")
		}
		got := clitest.Run(run, "-system", "small", "-lambda", "1e-4", "-warmup", "5", "-measure", "20", "-trace", "/dev/full")
		if got.Code != 1 || !strings.Contains(got.Stderr, "trace: ") {
			t.Fatalf("exit %d, stderr %q; want 1 and a trace error", got.Code, got.Stderr)
		}
	})
}
