package hourglass_test

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestProvisionerDoesNotLinkTheEngine: the provisioner, the executors'
// loop, the trace-driven simulator and the System API need only the
// performance model and the price traces, so none of their non-test
// imports, however indirect, may reach the BSP engine, the graph store,
// the checkpoint plane or the distributed runtime.
func TestProvisionerDoesNotLinkTheEngine(t *testing.T) {
	const module = "hourglass"
	roots := []string{module, module + "/internal/core", module + "/internal/loop", module + "/internal/sim",
		module + "/internal/perfmodel", module + "/internal/admission"}
	banned := []string{"internal/engine", "internal/graph", "internal/ckpt", "internal/dist"}

	via := map[string]string{} // package → the package that first imported it
	var walk func(path string)
	walk = func(path string) {
		dir := filepath.FromSlash("." + strings.TrimPrefix(path, module))
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if _, seen := via[imp]; !seen && strings.HasPrefix(imp, module+"/") {
				via[imp] = path
				walk(imp)
			}
		}
	}
	for _, root := range roots {
		via[root] = ""
	}
	for _, root := range roots {
		walk(root)
	}
	for _, b := range banned {
		path := module + "/" + b
		if _, linked := via[path]; !linked {
			continue
		}
		chain := []string{path}
		for p := via[path]; p != ""; p = via[p] {
			chain = append([]string{p}, chain...)
		}
		t.Errorf("%s is linked: %s", b, strings.Join(chain, " → "))
	}
}
