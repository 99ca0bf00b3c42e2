package lvmm

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDesignCitesExistingTests keeps DESIGN.md's evidence honest: every
// Test* or Fuzz* name it cites must be defined by some _test.go file in
// the repository, so a deleted or renamed test cannot stay cited as the
// proof of a property.
func TestDesignCitesExistingTests(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	cited := map[string]bool{}
	for _, name := range regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z0-9_]\w*`).FindAllString(string(design), -1) {
		cited[name] = true
	}
	if len(cited) == 0 {
		t.Fatal("DESIGN.md cites no tests; the name pattern is broken")
	}

	defined := map[string]bool{}
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRE.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var missing []string
	for name := range cited {
		if !defined[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("DESIGN.md cites tests no _test.go file defines: %s", strings.Join(missing, ", "))
	}
}
