//go:build !goexperiment.synctest

package vlink

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The tests in virtual time need GOEXPERIMENT=synctest, which a plain
// go test run does not set. Without it, each is this stand-in of the
// same name: it re-runs the real one in a child go test with the
// experiment on (under -race when this binary has it) and passes its
// log through. The child builds the standard library once for the
// experiment; later runs take it from the build cache.

func TestVirtualLinkMatchesPS(t *testing.T) { inBubble(t) }

func TestRuleSweep(t *testing.T) { inBubble(t) }

func TestRoutingDecision(t *testing.T) { inBubble(t) }

func TestHedgingDecision(t *testing.T) { inBubble(t) }

func TestBreakerDecision(t *testing.T) { inBubble(t) }

func TestMaxAttemptsDecision(t *testing.T) { inBubble(t) }

func TestBackoffDecision(t *testing.T) { inBubble(t) }

func inBubble(t *testing.T) {
	args := []string{"test", "-count=1", "-v", "-run", "^" + t.Name() + "$"}
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
