//go:build !goexperiment.synctest

package vlink

import (
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The tests in virtual time need GOEXPERIMENT=synctest, which a plain
// go test run does not set. Without it, each is this stand-in of the
// same name: it re-runs the real one in a child go test with the
// experiment on (under -race when this binary has it) and passes its
// log through. The child builds the standard library once for the
// experiment; later runs take it from the build cache. The child runs
// with -short, which keeps TestStoreDecision to one seed.

func TestVirtualLinkMatchesPS(t *testing.T) { inBubble(t) }

func TestRuleSweep(t *testing.T) { inBubble(t) }

func TestRoutingDecision(t *testing.T) { inBubble(t) }

func TestHedgingDecision(t *testing.T) { inBubble(t) }

func TestMaxAttemptsDecision(t *testing.T) { inBubble(t) }

func TestBackoffDecision(t *testing.T) { inBubble(t) }

func TestStoreDecision(t *testing.T) { inBubble(t) }

func inBubble(t *testing.T) {
	readSources(t)
	args := []string{"test", "-count=1", "-short", "-v", "-run", "^" + t.Name() + "$"}
	if raceEnabled {
		args = append(args, "-race")
	}
	cmd := exec.Command("go", append(args, ".")...)
	cmd.Env = append(os.Environ(), "GOEXPERIMENT=synctest")
	out, err := cmd.CombinedOutput()
	t.Logf("GOEXPERIMENT=synctest go %s .\n%s", strings.Join(args, " "), out)
	if err != nil {
		t.Fatalf("virtual-time run: %v", err)
	}
}

// readSources reads every Go file of each module package the child run
// builds, this package's tagged files among them. go test keys a cached
// result on the test binary's content and on the files in the module
// that the test opened. This binary links little of what the child runs
// (a blank import does not help: the linker drops the unreachable code,
// and an edit to it leaves the binary as it was), so without the reads
// an edit to a tagged file, or to internal/workload's Poisson source,
// would leave a warm go test on its cached pass. It returns the
// directories it read.
func readSources(t *testing.T) []string {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-test", "-f", "{{if not .Standard}}{{.Dir}}{{end}}", ".")
	cmd.Env = append(os.Environ(), "GOEXPERIMENT=synctest")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("GOEXPERIMENT=synctest go list -deps -test .: %v", err)
	}
	var dirs []string
	for _, dir := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if dir == "" || slices.Contains(dirs, dir) {
			continue
		}
		dirs = append(dirs, dir)
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if _, err := os.ReadFile(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dirs
}

// TestStandInReadsChildSources holds readSources to the packages only
// the child run links — the tagged files' own, and the Poisson source,
// batch means, PS closed form and event queue below them — so an edit
// to any of them re-runs a stand-in on a warm cache.
func TestStandInReadsChildSources(t *testing.T) {
	dirs := readSources(t)
	here, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{here, "internal/workload", "internal/stats", "internal/queue", "internal/des"} {
		found := false
		for _, d := range dirs {
			found = found || d == want || strings.HasSuffix(d, string(filepath.Separator)+filepath.FromSlash(want))
		}
		if !found {
			t.Errorf("readSources read no %s; it read %v", want, dirs)
		}
	}
}
