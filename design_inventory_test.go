package dualcube

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDesignInventoryListsEveryPackage keeps DESIGN.md §3 from drifting: the
// backticked module names in its table must be exactly the packages of
// `go list ./...` — the root package by its import path, every other one by
// its directory.
func TestDesignInventoryListsEveryPackage(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	listed := inventoryModules(t, string(doc))
	pkgs := modulePackages(t)
	for _, p := range pkgs {
		if !slices.Contains(listed, p) {
			t.Errorf("DESIGN.md §3 has no row for package %s", p)
		}
	}
	for _, m := range listed {
		if !slices.Contains(pkgs, m) {
			t.Errorf("DESIGN.md §3 lists %s, which is not a package of the module", m)
		}
	}
}

// inventoryModules returns the module names of DESIGN.md §3's table: the
// one backticked name in the first cell of every row.
func inventoryModules(t *testing.T, doc string) []string {
	t.Helper()
	start := strings.Index(doc, "\n## 3.")
	if start < 0 {
		t.Fatal("DESIGN.md has no section 3")
	}
	sec := doc[start+1:]
	if end := strings.Index(sec, "\n## "); end >= 0 {
		sec = sec[:end]
	}
	tick := regexp.MustCompile("`([^`]+)`")
	var names []string
	for _, line := range strings.Split(sec, "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 3 {
			continue
		}
		m := tick.FindAllStringSubmatch(cells[1], -1)
		switch {
		case len(m) == 0:
			continue // header and separator rows
		case len(m) > 1:
			t.Errorf("§3 row names %d modules in its first cell: %s", len(m), line)
		}
		if slices.Contains(names, m[0][1]) {
			t.Errorf("§3 lists %s twice", m[0][1])
		}
		names = append(names, m[0][1])
	}
	return names
}

// modulePackages walks the module for directories holding Go files, as
// `go list ./...` does: testdata, dot- and underscore-directories and
// nested modules (the bench module) are skipped.
func modulePackages(t *testing.T) []string {
	t.Helper()
	var pkgs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		if pkg == "." {
			pkg = "dualcube"
		}
		if !slices.Contains(pkgs, pkg) {
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}
