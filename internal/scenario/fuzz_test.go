package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the hand-written YAML/JSON spec
// parser. Parse must never panic, and a spec it accepts must compile to
// the same content address when parsed a second time. The committed
// example specs seed the corpus, so plain `go test` runs them as cases.
// Compile gets no base directory, as for wire submissions: file-based
// trace sources are rejected instead of read, which keeps the fuzzer off
// the filesystem.
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(examplesDir, "*.yaml"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatalf("no seed specs in %s", examplesDir)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			return
		}
		c, err := spec.Compile("")
		if err != nil {
			return
		}
		again, err := Parse(data)
		if err != nil {
			t.Fatalf("second parse rejected an accepted spec: %v", err)
		}
		c2, err := again.Compile("")
		if err != nil {
			t.Fatalf("second compile rejected an accepted spec: %v", err)
		}
		if c.Key() != c2.Key() {
			t.Fatalf("parsing twice changed the key:\n%s\n%s", c.Key(), c2.Key())
		}
	})
}
