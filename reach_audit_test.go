package airshed

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the exported names in internal/ that no non-test code
// uses but that stay, and why. Keys are "pkg.Name" or "pkg.Type.Method"
// with pkg the package name; an entry that no longer names an unreached
// declaration fails the test, so the list cannot rot.
var reachAllow = map[string]string{
	// Test seams: tests drive the product through these.
	"resilience.Injector.ArmPanic": "the forced-worker-panic input of the chaos tests",
	"resilience.Injector.Calls":    "chaos tests assert a fault point was reached",
	"resilience.Injector.Fired":    "chaos tests assert a fault point fired",
	"resilience.Enabled":           "tests assert Disable uninstalled the process-wide injector",
	"resilience.Breaker.SetClock":  "breaker tests expire the cooldown on an injected clock",
	"store.Store.SetBreaker":       "store, fleet and daemon tests install a breaker with a tight threshold or an injected clock",
	"store.MemBackend.Quarantined": "quarantine tests assert a corrupt blob was kept, not deleted",
	"fleet.Coordinator.Await":      "fleet tests wait on a coordinator sweep the way sweep.Engine.Await waits on a local one",

	// Oracles and generators: tests compare the product against these.
	"species.GenerateKernel":          "kernel_test regenerates standard_kernel.go from the reaction table and fails on drift",
	"species.Mechanism.AuditElements": "the element-conservation audit the mechanism tests run",
	"species.StandardComposition":     "the element composition AuditElements checks the standard mechanism against",
	"species.KnownNitrogenLeaks":      "the lumped reactions whose nitrogen imbalance the audit expects",
	"transport.Operator2D.Mass":       "the mass integral the transport conservation tests check",
	"grid.Grid.Refine":                "builds the multiscale grids the transport tests run on",
}

// protocolMethods are method names the standard library calls by
// convention or through interfaces the module never spells out.
var protocolMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"String": true, "Format": true, "ServeHTTP": true,
	"GobEncode": true, "GobDecode": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
}

// TestEveryExportedNameIsReached fails on an exported package-level name,
// or an exported method of a named type, in internal/ that the module's
// non-test code never uses: cmd/, examples/ and bench/ count as callers,
// the root package's API is out of scope. A use inside the declaration
// itself (recursion, a method naming its own receiver type) does not
// count. A method is exempt when its receiver satisfies, with the method
// in the set, an interface the module mentions, named or literal, or when
// it is a stdlib protocol method; anything else needs a reachAllow entry.
func TestEveryExportedNameIsReached(t *testing.T) {
	r := loadModule(t).reachability()

	var unreached []string
	allowed := map[string]bool{}
	for _, key := range r.unreached {
		if _, ok := reachAllow[key]; ok {
			allowed[key] = true
			continue
		}
		unreached = append(unreached, key)
	}
	for _, key := range unreached {
		t.Errorf("%s: no non-test code uses it — delete it, or allowlist %q with a reason", r.where[key], key)
	}
	if len(unreached) > 0 {
		t.Logf("%d unreached exported names", len(unreached))
	}
	for key := range reachAllow {
		if !allowed[key] {
			t.Errorf("allowlist entry %q matches no unreached name any more; delete it", key)
		}
	}

	// The audit is only worth its name if its walk sees what it claims
	// to: a use from another package, a method reached only through an
	// anonymous interface, and a stdlib protocol method.
	if !r.reached["store.Store.Restore"] {
		t.Error("audit does not see store.Store.Restore as reached; are calls from other packages counted?")
	}
	for key, why := range map[string]string{
		"store.DirBackend.SweepTemps":       "implements",
		"resilience.CorruptionError.Unwrap": "protocol",
	} {
		if got := r.exempt[key]; !strings.HasPrefix(got, why) {
			t.Errorf("audit exempts %s as %q, want %s", key, got, why)
		}
	}
}

type reach struct {
	unreached []string          // sorted keys of unused, unexempt names
	reached   map[string]bool   // keys with a non-test use
	exempt    map[string]string // method key → why it needs no use
	where     map[string]string // every candidate key → its position
}

// reachability walks every use in the module's non-test code and reports
// which exported names of internal/ packages nothing reaches.
func (m *module) reachability() *reach {
	used := map[types.Object]bool{}
	ifaces := map[string]*types.Interface{}
	for _, path := range m.paths {
		info := m.infos[path]
		for _, f := range m.files[path] {
			for _, decl := range f.Decls {
				m.usesIn(info, decl, used)
			}
		}
		for _, tv := range info.Types {
			collectInterfaces(tv.Type, ifaces)
		}
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				collectInterfaces(tn.Type(), ifaces)
			}
		}
	}
	ifaceKeys := make([]string, 0, len(ifaces))
	for k := range ifaces {
		ifaceKeys = append(ifaceKeys, k)
	}
	sort.Strings(ifaceKeys)

	r := &reach{reached: map[string]bool{}, exempt: map[string]string{}, where: map[string]string{}}
	consider := func(key string, obj types.Object, why func() string) {
		r.where[key] = m.fset.Position(obj.Pos()).String()
		if used[obj] {
			r.reached[key] = true
			return
		}
		if why != nil {
			if w := why(); w != "" {
				r.exempt[key] = w
				return
			}
		}
		r.unreached = append(r.unreached, key)
	}
	for _, path := range m.paths {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		pkg := m.pkgs[path]
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			consider(pkg.Name()+"."+name, obj, nil)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				meth := named.Method(i)
				if !meth.Exported() {
					continue
				}
				consider(pkg.Name()+"."+name+"."+meth.Name(), meth, func() string {
					if protocolMethods[meth.Name()] {
						return "protocol"
					}
					for _, k := range ifaceKeys {
						iface := ifaces[k]
						if !hasMethod(iface, meth.Name()) {
							continue
						}
						if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
							return "implements " + k
						}
					}
					return ""
				})
			}
		}
	}
	sort.Strings(r.unreached)
	return r
}

// usesIn marks every object decl uses, except uses of what decl itself
// declares (a function calling itself, a type naming itself) and of a
// method's receiver type.
func (m *module) usesIn(info *types.Info, decl ast.Decl, used map[types.Object]bool) {
	self := map[types.Object]bool{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self[info.Defs[d.Name]] = true
		if d.Recv != nil {
			ast.Inspect(d.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if tn, ok := info.Uses[id].(*types.TypeName); ok {
						self[tn] = true
					}
				}
				return true
			})
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				self[info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, n := range s.Names {
					self[info.Defs[n]] = true
				}
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj != nil && !self[obj] {
			used[obj] = true
		}
		return true
	})
}

// collectInterfaces records every interface with methods that t is, or
// that t's signature takes or returns (a stdlib function's parameter
// type is mentioned by every call to it).
func collectInterfaces(t types.Type, into map[string]*types.Interface) {
	switch u := t.Underlying().(type) {
	case *types.Interface:
		if u.NumMethods() > 0 {
			into[types.TypeString(t, nil)] = u
		}
	case *types.Pointer:
		collectInterfaces(u.Elem(), into)
	case *types.Slice:
		collectInterfaces(u.Elem(), into)
	case *types.Signature:
		for _, tuple := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				collectInterfaces(tuple.At(i).Type(), into)
			}
		}
	}
}

func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}
