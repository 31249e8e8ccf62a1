// Package version holds the single version string shared by every ccnet
// command, so `<tool> -version` output stays consistent across the CLI
// surface and the HTTP service's health endpoint.
package version

import (
	"fmt"
	"runtime"
)

// Version identifies the build. It is overridable at link time:
//
//	go build -ldflags "-X github.com/ccnet/ccnet/internal/version.Version=v1.2.3"
var Version = "0.2.0-dev"

// String renders the one-line `-version` output for a named tool,
// e.g. "ccscen version 0.2.0-dev go1.24.0 linux/amd64".
func String(tool string) string {
	return fmt.Sprintf("%s version %s %s %s/%s",
		tool, Version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
