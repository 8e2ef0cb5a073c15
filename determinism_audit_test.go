package airshed

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// auditAllow lists the map ranges the determinism audit would flag and
// why each is order-independent anyway. Keys are "file:func:rule"; an
// entry that no longer matches anything fails the test, so the list
// cannot rot.
var auditAllow = map[string]string{}

// TestDeterminismAudit type-checks every non-test package of the module
// and fails on a `range` over a map whose body does something that
// depends on iteration order: accumulates into a float declared outside
// the loop (float addition does not commute in the last bit), appends to
// an outer slice that the function never sorts afterwards, or writes to
// an io.Writer / encoder. Per-key updates (`out[k] += v` with k the
// range key) are order-independent and pass.
func TestDeterminismAudit(t *testing.T) {
	m := loadModule(t)
	a := &auditor{module: m, allowed: map[string]bool{}, ranges: map[string]int{}}
	for _, path := range m.paths {
		a.audit(path)
	}

	sort.Strings(a.findings)
	for _, f := range a.findings {
		t.Error(f)
	}
	for key := range auditAllow {
		if !a.allowed[key] {
			t.Errorf("allowlist entry %q matches nothing any more; delete it", key)
		}
	}
	// The audit is only worth its name if it reaches the maps that carry
	// virtual seconds: Ledger.ByCat (vm, report), the replay results'
	// CommSeconds / StageBound (core, which today ranges over neither
	// outside tests) and sr's per-group deltas.
	for _, pkg := range []string{"internal/vm", "internal/sr", "internal/report"} {
		if a.ranges[pkg] == 0 {
			t.Errorf("audit saw no map range in %s; is the package still being walked?", pkg)
		}
	}
	for _, path := range []string{"airshed/internal/core", "airshed/internal/perfmodel", "airshed/cmd/airshedsim"} {
		if a.pkgs[path] == nil {
			t.Errorf("audit never type-checked %s", path)
		}
	}
	// Gob ranges over a map for us, in iteration order. A stored row's bytes
	// must be a function of its content (a repair or a second fleet worker
	// rewrites the same blob), so the struct the store gob-encodes as a row
	// holds no map at any depth.
	if row := a.pkgs["airshed/internal/store"].Scope().Lookup("SpecManifest"); row == nil {
		t.Error("audit found no store.SpecManifest; where is the row encoded now?")
	} else if where := mapInside(row.Type(), map[types.Type]bool{}); where != "" {
		t.Errorf("store.SpecManifest holds a map at %s: a row's bytes would depend on map iteration order", where)
	}
}

// mapInside returns the path to the first map reachable from t through
// pointers, slices, arrays and struct fields ("" if there is none).
func mapInside(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Map:
		return t.String()
	case *types.Pointer:
		return mapInside(u.Elem(), seen)
	case *types.Slice:
		return mapInside(u.Elem(), seen)
	case *types.Array:
		return mapInside(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if where := mapInside(u.Field(i).Type(), seen); where != "" {
				return u.Field(i).Name() + ": " + where
			}
		}
	}
	return ""
}

// module is the module's non-test code, type-checked once per test binary
// and shared by the audits that read it.
type module struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*types.Package // module packages by import path
	infos  map[string]*types.Info
	files  map[string][]*ast.File
	paths  []string // every package with non-test code, in directory order
	writer *types.Interface
}

var (
	moduleOnce sync.Once
	moduleMemo *module
	moduleErr  error
)

// loadModule type-checks every non-test package of the module, the
// first time it is called in a test binary; later calls share the result.
func loadModule(t *testing.T) *module {
	t.Helper()
	moduleOnce.Do(func() { moduleMemo, moduleErr = typeCheckModule() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleMemo
}

func typeCheckModule() (*module, error) {
	// The stdlib is type-checked from GOROOT source; without cgo so the
	// audits need no C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m := &module{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
		files: map[string][]*ast.File{},
	}
	iopkg, err := m.std.Import("io")
	if err != nil {
		return nil, err
	}
	m.writer = iopkg.Scope().Lookup("Writer").Type().Underlying().(*types.Interface)

	var dirs []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata" || n == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			if dir := filepath.Dir(path); len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		path := modulePath
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		if _, err := m.check(dir, path); err != nil {
			return nil, err
		}
		m.paths = append(m.paths, path)
	}
	return m, nil
}

const modulePath = "airshed"

// Import resolves module packages from source (memoised) and everything
// else through the stdlib importer.
func (m *module) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return m.std.Import(path)
	}
	dir := "." + strings.TrimPrefix(path, modulePath)
	return m.check(filepath.Clean(dir), path)
}

func (m *module) check(dir, path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	parsed, err := parser.ParseDir(m.fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, p := range parsed { // one non-test package per directory
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	sort.Slice(files, func(i, j int) bool { return m.fset.File(files[i].Pos()).Name() < m.fset.File(files[j].Pos()).Name() })
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},

		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", dir, err)
	}
	m.pkgs[path], m.infos[path], m.files[path] = pkg, info, files
	return pkg, nil
}

// auditor runs the determinism audit over a type-checked module.
type auditor struct {
	*module

	findings []string
	allowed  map[string]bool
	ranges   map[string]int // map ranges seen, by package directory
}

func (a *auditor) audit(path string) {
	dir := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
	if dir == "" {
		dir = "."
	}
	info := a.infos[path]
	for _, f := range a.files[path] {
		file := filepath.ToSlash(a.fset.File(f.Pos()).Name())
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				name = recvName(fn.Recv.List[0].Type) + "." + name
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
					return true
				}
				a.ranges[filepath.ToSlash(dir)]++
				for _, hit := range a.orderDependent(info, fn, rs) {
					key := file + ":" + name + ":" + hit.rule
					if _, ok := auditAllow[key]; ok {
						a.allowed[key] = true
						continue
					}
					a.findings = append(a.findings, fmt.Sprintf("%s: %s (%s) — iterate sorted keys or a fixed order, or allowlist %q with a reason",
						a.fset.Position(hit.pos), hit.what, name, key))
				}
				return true
			})
		}
	}
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

type auditHit struct {
	pos  token.Pos
	rule string // "float", "append" or "write"
	what string
}

// orderDependent returns what in the body of a map range depends on the
// iteration order.
func (a *auditor) orderDependent(info *types.Info, fn *ast.FuncDecl, rs *ast.RangeStmt) []auditHit {
	var hits []auditHit
	key, _ := rs.Key.(*ast.Ident)
	// outer reports whether e is rooted in a variable that outlives one
	// iteration and is not simply indexed by the range key.
	outer := func(e ast.Expr) bool {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				if id, ok := x.Index.(*ast.Ident); ok && key != nil && id.Name == key.Name && info.Uses[id] == info.Defs[key] {
					return false // per-key slot: each visited exactly once
				}
				e = x.X
			case *ast.Ident:
				obj := info.Uses[x]
				if obj == nil {
					obj = info.Defs[x]
				}
				if obj == nil {
					return false
				}
				return obj.Pos() < rs.Body.Pos() || obj.Pos() > rs.Body.End()
			default:
				return true // a call result or literal: assume it escapes
			}
		}
	}
	isWriter := func(e ast.Expr) bool {
		t := info.TypeOf(e)
		if t == nil || t == types.Typ[types.Invalid] { // a package qualifier
			return false
		}
		if _, isPtr := t.Underlying().(*types.Pointer); !isPtr && !types.IsInterface(t) {
			if types.Implements(types.NewPointer(t), a.writer) {
				return true
			}
		}
		return types.Implements(t, a.writer)
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if b, ok := info.TypeOf(n.Lhs[0]).Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 && outer(n.Lhs[0]) {
					hits = append(hits, auditHit{n.Pos(), "float", "float accumulation in map order"})
				}
			case token.ASSIGN, token.DEFINE:
				for i, rhs := range n.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || i >= len(n.Lhs) {
						continue
					}
					if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" || info.Uses[id] != types.Universe.Lookup("append") {
						continue
					}
					if outer(n.Lhs[i]) && !sortedAfter(fn, rs, types.ExprString(n.Lhs[i])) {
						hits = append(hits, auditHit{n.Pos(), "append", "append in map order to " + types.ExprString(n.Lhs[i]) + ", never sorted afterwards"})
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok {
				if pn, ok := info.Uses[pkg].(*types.PkgName); ok && pn.Imported().Path() == "fmt" && strings.HasPrefix(sel.Sel.Name, "Print") {
					hits = append(hits, auditHit{n.Pos(), "write", "fmt." + sel.Sel.Name + " in map order"})
					return true
				}
			}
			if strings.HasPrefix(sel.Sel.Name, "Encode") && info.Selections[sel] != nil && outer(sel.X) {
				hits = append(hits, auditHit{n.Pos(), "write", sel.Sel.Name + " in map order"})
				return true
			}
			for _, arg := range append([]ast.Expr{sel.X}, n.Args...) {
				if isWriter(arg) && outer(arg) {
					hits = append(hits, auditHit{n.Pos(), "write", "write to " + types.ExprString(arg) + " in map order"})
					return true
				}
			}
		}
		return true
	})
	return hits
}

// sortedAfter reports whether fn, somewhere after the range statement,
// passes target to a sort (sort.*, slices.Sort*, or any function with
// "sort" in its name).
func sortedAfter(fn *ast.FuncDecl, rs *ast.RangeStmt, target string) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found || call.Pos() < rs.End() {
			return !found
		}
		if !strings.Contains(strings.ToLower(types.ExprString(call.Fun)), "sort") {
			return true
		}
		for _, arg := range call.Args {
			if strings.Contains(types.ExprString(arg), target) {
				found = true
			}
		}
		return !found
	})
	return found
}
