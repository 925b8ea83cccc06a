// Package load discovers, parses, and type-checks the packages of a Go
// module using only the standard library. It is the loader behind
// samlint: the offline build environment has no access to
// golang.org/x/tools/go/packages, so this package walks the module tree
// itself, resolves intra-module imports topologically, and delegates
// standard-library imports to the compiler's source importer.
package load

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"samft/internal/lint/analysis"
)

// Config directs one Load.
type Config struct {
	// Dir is the root directory to scan for packages.
	Dir string
	// ModulePath is the import-path prefix corresponding to Dir. When
	// empty, packages are addressed by their Dir-relative slash path
	// (fixture mode, used by linttest).
	ModulePath string
}

// skipDirs are directory names never descended into.
var skipDirs = map[string]bool{
	"testdata": true, "vendor": true, ".git": true, ".github": true,
	"node_modules": true,
}

// Load parses and type-checks every package under cfg.Dir. Packages are
// returned in dependency order (imports before importers). Type errors
// are recorded per package rather than aborting the load, so analyzers
// can still run over a mostly-well-formed tree.
func Load(cfg Config) ([]*analysis.Package, *token.FileSet, error) {
	root, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, nil, err
	}

	fset := token.NewFileSet()
	pkgs := make(map[string]*rawPkg, len(dirs))
	for _, dir := range dirs {
		rp, err := parseDir(fset, dir)
		if err != nil {
			return nil, nil, err
		}
		if rp == nil {
			continue
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, nil, err
		}
		rp.path = importPathFor(cfg.ModulePath, rel)
		pkgs[rp.path] = rp
	}

	order, err := topoSort(pkgs)
	if err != nil {
		return nil, nil, err
	}

	checker := &moduleImporter{
		local:  make(map[string]*types.Package, len(pkgs)),
		source: importer.ForCompiler(fset, "source", nil),
	}
	out := make([]*analysis.Package, 0, len(order))
	for _, rp := range order {
		pkg := typeCheck(fset, rp, checker)
		checker.local[rp.path] = pkg.Types
		out = append(out, pkg)
	}
	return out, fset, nil
}

// ModulePathOf reads the module path from the go.mod at or above dir.
// It returns the module path and the module root directory.
func ModulePathOf(dir string) (string, string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return strings.TrimSpace(rest), d, nil
				}
			}
			return "", "", fmt.Errorf("load: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("load: no go.mod at or above %s", dir)
		}
		d = parent
	}
}

func importPathFor(modulePath, rel string) string {
	rel = filepath.ToSlash(rel)
	if rel == "." {
		rel = ""
	}
	switch {
	case modulePath == "":
		return rel
	case rel == "":
		return modulePath
	default:
		return modulePath + "/" + rel
	}
}

// rawPkg is a parsed-but-unchecked package.
type rawPkg struct {
	path    string
	dir     string
	name    string
	files   []*ast.File
	imports []string
}

func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := filepath.Base(path)
		if path != root && (skipDirs[base] || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// parseDir parses the non-test Go files of one directory. It returns nil
// when the directory holds no Go files.
func parseDir(fset *token.FileSet, dir string) (*rawPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rp := &rawPkg{dir: dir}
	seen := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		pkgName := f.Name.Name
		if rp.name == "" {
			rp.name = pkgName
		} else if rp.name != pkgName {
			return nil, fmt.Errorf("load: %s: packages %s and %s in one directory", dir, rp.name, pkgName)
		}
		rp.files = append(rp.files, f)
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if !seen[p] {
				seen[p] = true
				rp.imports = append(rp.imports, p)
			}
		}
	}
	if len(rp.files) == 0 {
		return nil, nil
	}
	sort.Strings(rp.imports)
	return rp, nil
}

// topoSort orders packages so every intra-module import precedes its
// importer.
func topoSort(pkgs map[string]*rawPkg) ([]*rawPkg, error) {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(pkgs))
	var order []*rawPkg
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("load: import cycle through %s", path)
		}
		state[path] = visiting
		rp := pkgs[path]
		for _, imp := range rp.imports {
			if _, ok := pkgs[imp]; ok {
				if err := visit(imp); err != nil {
					return err
				}
			}
		}
		state[path] = done
		order = append(order, rp)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves intra-module imports from the packages already
// checked this load, and everything else (the standard library) through
// the compiler's source importer.
type moduleImporter struct {
	local  map[string]*types.Package
	source types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.local[path]; ok {
		return pkg, nil
	}
	return m.source.Import(path)
}

func typeCheck(fset *token.FileSet, rp *rawPkg, imp types.Importer) *analysis.Package {
	pkg := &analysis.Package{
		Path:  rp.path,
		Dir:   rp.dir,
		Name:  rp.name,
		Files: rp.files,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
			Instances:  make(map[*ast.Ident]types.Instance),
		},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns the (possibly incomplete) package even on error; the
	// collected TypeErrors are surfaced by the driver.
	tpkg, _ := conf.Check(rp.path, fset, rp.files, pkg.Info)
	pkg.Types = tpkg
	return pkg
}
