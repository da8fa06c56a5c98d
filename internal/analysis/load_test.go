package analysis

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestPlatformSelectsHostFiles pins the files loadDir parses for the
// module's platform-split packages: those `go build` compiles on the host,
// by //go:build line and filename suffix, with cgo off.
func TestPlatformSelectsHostFiles(t *testing.T) {
	unix := []string{"main.go", "signals_unix.go"}
	want := map[string]map[string][]string{
		"linux/amd64": {
			"internal/transport": {"batchio.go", "batchio_linux.go", "benchharness.go", "bus.go", "sysnum_sendmmsg_linux.go", "transport.go", "udp.go", "udp_sockopt_unix.go"},
			"cmd/sdrd":           unix,
		},
		"linux/arm64": {
			"internal/transport": {"batchio.go", "batchio_linux.go", "benchharness.go", "bus.go", "sysnum_sendmmsg_linux_generic.go", "transport.go", "udp.go", "udp_sockopt_unix.go"},
			"cmd/sdrd":           unix,
		},
		"linux/386": {
			"internal/transport": {"batchio.go", "batchio_linux.go", "benchharness.go", "bus.go", "sysnum_sendmmsg_fallback_linux.go", "transport.go", "udp.go", "udp_sockopt_unix.go"},
			"cmd/sdrd":           unix,
		},
		"darwin/arm64": {
			"internal/transport": {"batchio.go", "batchio_other.go", "benchharness.go", "bus.go", "transport.go", "udp.go", "udp_sockopt_unix.go"},
			"cmd/sdrd":           unix,
		},
		"windows/amd64": {
			"internal/transport": {"batchio.go", "batchio_other.go", "benchharness.go", "bus.go", "transport.go", "udp.go", "udp_sockopt_other.go"},
			"cmd/sdrd":           {"main.go", "signals_other.go"},
		},
	}[platform.GOOS+"/"+platform.GOARCH]
	if want == nil {
		t.Skipf("no pinned selection for %s/%s", platform.GOOS, platform.GOARCH)
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	for dir, files := range want {
		bp, err := platform.ImportDir(filepath.Join(root, filepath.FromSlash(dir)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(bp.GoFiles, files) {
			t.Errorf("%s on %s/%s: files %v, want %v", dir, platform.GOOS, platform.GOARCH, bp.GoFiles, files)
		}
	}
}

// TestModulePackagesWalksTheTree pins the walk that scopes a run: every
// directory holding a non-test Go file, nested ones included, but not
// testdata/, benchmark/, dot-directories or a directory of tests only.
func TestModulePackagesWalksTheTree(t *testing.T) {
	got, err := newLoader(filepath.Join("testdata", "module"), "fixmod").modulePackages()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"fixmod", "fixmod/a", "fixmod/a/b"}; !slices.Equal(got, want) {
		t.Errorf("modulePackages() = %v, want %v", got, want)
	}
}
