package kernels

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// rowHelpers are the comparison kernels' per-row helpers; each must inline.
var rowHelpers = []string{"outcome", "cmpTest", "b2i", "pass", "live", "sign", "bytesOutcome"}

// indirectBodies are the functions in compare.go and dec64.go whose
// function literals are allowed to miss inlining: Dec64RescaleDecV picks one
// of two per-row bodies by the direction of the rescale and calls it
// through a variable, an indirect call per row that ROADMAP.md keeps open.
var indirectBodies = map[string]bool{"Dec64RescaleDecV": true}

// TestComparisonLoopsInline reads the compiler's inlining report for this
// package and for expr, where the generic kernels are instantiated
// (go build -gcflags=-m=2). The comparison kernels' per-row helpers must
// inline, and every function literal in compare.go and dec64.go must
// be inlined where it is called: a closure passed or stored as a value costs
// an indirect call per row, which one loop per shape with the op as a mask
// exists to avoid.
func TestComparisonLoopsInline(t *testing.T) {
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gobin); err != nil {
		t.Skipf("no go command: %v", err)
	}
	out, err := exec.Command(gobin, "build", "-gcflags=-m=2", ".", "../expr").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m=2: %v\n%s", err, out)
	}
	report := string(out)
	for _, h := range rowHelpers {
		if !regexp.MustCompile(`: can inline ` + h + `[\[ ]`).MatchString(report) {
			t.Errorf("per-row helper %s: not reported inlinable", h)
		}
		if m := regexp.MustCompile(`: cannot inline ` + h + `[\[:].*`).FindString(report); m != "" {
			t.Errorf("per-row helper %s%s", h, m)
		}
	}
	lits := regexp.MustCompile(`(?m)^(?:\./|\.\./kernels/)(compare|dec64)\.go:\d+:\d+: (?:can|cannot) inline ((?:kernels\.)?(\w+)(?:\[[^\]]*\])?\.func\d+)\b`)
	found := lits.FindAllStringSubmatch(report, -1)
	for _, m := range found {
		if !indirectBodies[m[3]] && !strings.Contains(report, "inlining call to "+m[2]+"\n") {
			t.Errorf("%s.go: function literal %s is not inlined at its call", m[1], m[2])
		}
	}
	if len(found) == 0 { // Dec64RescaleDecV's at least
		t.Error("the report lists no function literal of dec64.go: its format changed")
	}
}
