package asyncmg_test

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// maxStepName is the longest name a workflow step may carry; what a
// longer name would say goes into `#` comments above the step.
const maxStepName = 100

// workflowNameErrors lists the `name:` keys of a GitHub Actions workflow
// that break it: a plain (unquoted) scalar containing ": ", which YAML
// reads as a nested mapping, so the whole file stops parsing and no job
// runs; and a name over maxStepName characters.
func workflowNameErrors(yml string) []string {
	var errs []string
	for i, line := range strings.Split(yml, "\n") {
		key := strings.TrimPrefix(strings.TrimSpace(line), "- ")
		name, ok := strings.CutPrefix(key, "name:")
		if !ok {
			continue
		}
		name = strings.TrimSpace(name)
		quoted := strings.HasPrefix(name, `"`) || strings.HasPrefix(name, `'`)
		if !quoted && strings.Contains(name, ": ") {
			errs = append(errs, fmt.Sprintf("line %d: plain-scalar name contains \": \": %.60q", i+1, name))
		}
		if len(name) > maxStepName {
			errs = append(errs, fmt.Sprintf("line %d: name is %d characters, over %d", i+1, len(name), maxStepName))
		}
	}
	return errs
}

// TestWorkflowStepNames holds .github/workflows/ci.yml to
// workflowNameErrors, and the check itself to one planted violation of
// each kind.
func TestWorkflowStepNames(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range workflowNameErrors(string(yml)) {
		t.Errorf("ci.yml %s", e)
	}
	for _, planted := range []string{
		"      - name: Build: run every example\n",
		"      - name: " + strings.Repeat("x", maxStepName+1) + "\n",
	} {
		if workflowNameErrors(planted) == nil {
			t.Errorf("planted %.40q passes the check", planted)
		}
	}
	for _, fine := range []string{
		"      - name: Build\n",
		"      - name: \"Build: run every example\"\n",
		"      - name: Vet and test the benchmark module (bench/ is its own module; ./... above does not reach it)\n",
	} {
		if errs := workflowNameErrors(fine); errs != nil {
			t.Errorf("%.40q fails the check: %v", fine, errs)
		}
	}
}
