package minos

import (
	"os/exec"
	"strings"
	"testing"
)

// TestPackageLayering holds the import graph to what DESIGN.md §6 claims,
// so a convenience import that turns the layering upside down fails a test
// instead of waiting for a reader to notice:
//
//   - internal/text is a leaf: no other package of this module under it;
//   - the presentation manager (internal/core) works on an object in hand
//     and needs none of the content index, the server or the wire;
//   - internal/server holds serving code only — no virtual clock, none of
//     the modelling package;
//   - internal/loadgen sits on top: only cmd/ and the root experiment
//     tests import it.
func TestPackageLayering(t *testing.T) {
	const mod = "minos/internal/"
	out, err := exec.Command("go", "list", "-f",
		`{{.ImportPath}}|{{join .Deps " "}}|{{join .TestImports " "}} {{join .XTestImports " "}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	deps := map[string][]string{}     // transitive, non-test
	testDeps := map[string][]string{} // direct imports of the package's tests
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "|")
		if len(f) != 3 {
			t.Fatalf("unexpected go list line %q", line)
		}
		deps[f[0]] = strings.Fields(f[1])
		testDeps[f[0]] = strings.Fields(f[2])
	}
	mustNot := func(pkg string, banned ...string) {
		t.Helper()
		if _, ok := deps[pkg]; !ok {
			t.Fatalf("package %s not found by go list", pkg)
		}
		for _, d := range deps[pkg] {
			for _, b := range banned {
				if d == b || (strings.HasSuffix(b, "/") && strings.HasPrefix(d, b)) {
					t.Errorf("%s depends on %s", pkg, d)
				}
			}
		}
	}
	mustNot(mod+"text", mod)
	mustNot(mod+"core", mod+"index", mod+"server", mod+"wire")
	mustNot(mod+"server", mod+"vclock", mod+"loadgen")
	for pkg := range deps {
		if pkg == "minos" || pkg == mod+"loadgen" || strings.HasPrefix(pkg, "minos/cmd/") {
			continue
		}
		mustNot(pkg, mod+"loadgen")
		for _, d := range testDeps[pkg] {
			if d == mod+"loadgen" {
				t.Errorf("the tests of %s import %s", pkg, d)
			}
		}
	}
}

// TestBenchModuleVets type-checks the benchmark module. bench/e2e is a
// module of its own, so `go build ./...` and `go test ./...` here never
// compile it; vet type-checks its test files too, so a product change that
// breaks a name the benchmark uses fails this test.
func TestBenchModuleVets(t *testing.T) {
	cmd := exec.Command("go", "vet", ".")
	cmd.Dir = "bench/e2e"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in bench/e2e: %v\n%s", err, out)
	}
}
