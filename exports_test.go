package grade10_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOracles are the packages tests compare the production code against:
// the frozen attribution oracle and the sequential reference algorithms the
// vertex programs are validated against. The scans skip their exports and
// fields. internal/explain calls reference.Attribute in production, but
// some of the oracle's exported fields (InstanceProfile.Instance,
// PhaseUsage.Phase, Profile.Slices) are read only by the equivalence suite,
// and the oracle is frozen, so it stays exempt.
var testOracles = map[string]bool{
	"internal/algo":                  true,
	"internal/attribution/reference": true,
}

// keepExports are test-only by design: how tests observe memory bounds.
var keepExports = map[string]bool{
	"grade10/internal/enginelog.LineSplitter.Retained": true,
}

// interfaceMethods satisfy standard-library interfaces implicitly, so the
// callers that matter live outside this module.
var interfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true,
	"Is": true, "As": true, "ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "Read": true, "Write": true, "Close": true,
	"Handle": true, "Enabled": true, "WithAttrs": true, "WithGroup": true,
}

// TestNoTestOnlyExports fails when an exported function or method under cmd/
// or internal/ has no production caller: only _test.go files reference it,
// or nothing does. Production callers are the module's non-test files plus
// perfbench/, which runs the binaries' code paths as a benchmark. The check type-checks every package from
// source, so a method is matched on its receiver type, not only its name.
func TestNoTestOnlyExports(t *testing.T) {
	c := scanModule(t)
	var unused []string
	for key, decl := range c.decls {
		// A method may be called through an interface: exempt the names of
		// standard interfaces and of every interface method production calls.
		viaInterface := decl.method && (interfaceMethods[decl.name] || c.prodIfaceNames[decl.name])
		if !c.prod[key] && !keepExports[key] && !viaInterface {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		if c.test[key] {
			t.Errorf("%s is exported but only tests call it: delete it or move its test onto the production path", key)
		} else {
			t.Errorf("%s is exported but nothing calls it: delete it", key)
		}
	}
}

// simulatorConfigs are the engine simulators: their configs generate
// workloads, and their tests vary those parameters on purpose.
var simulatorConfigs = map[string]bool{
	"internal/giraphsim":   true,
	"internal/pgsim":       true,
	"internal/dataflowsim": true,
}

// TestNoUnsetOptions fails when an exported field of an exported *Config or
// *Options struct under cmd/ or internal/ has no writer outside its own
// package among the production files: a value only its package's defaults
// or tests set is a constant, not an option. Writers are composite-literal
// keys, assignments, increments and address-taking (flag binding); like
// TestNoTestOnlyExports, perfbench counts as production. Func-typed fields
// are exempt: they are hooks and test fakes, not values. So are the
// simulator configs (simulatorConfigs).
func TestNoUnsetOptions(t *testing.T) {
	c := scanModule(t)
	var unset []string
	for pos, key := range c.options {
		if !c.optionSet[pos] {
			unset = append(unset, key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		t.Errorf("%s is an option no production code outside its package sets: make it a constant", key)
	}
}

// keepFields are read only by tests, by design, each with the reason.
var keepFields = map[string]string{
	"grade10/internal/giraphsim.Result.Values": "the vertex-program tests check the engine's values against internal/algo",
	"grade10/internal/pgsim.Result.Values":     "the vertex-program tests check the engine's values against internal/algo",

	"grade10/internal/giraphsim.Stats.BytesSent":      "engine tests check message bytes against the network model's traffic",
	"grade10/internal/giraphsim.Stats.MessagesSent":   "engine tests check remote messages are counted, and none on one worker",
	"grade10/internal/giraphsim.Stats.GCTime":         "engine tests check the pause per GC is the same for any GC thread count",
	"grade10/internal/giraphsim.Stats.QueueStallTime": "engine tests check a faster network stalls producers less",
	"grade10/internal/pgsim.Stats.BytesSent":          "engine tests check exchange bytes grow with the replication factor",
	"grade10/internal/pgsim.Stats.MessagesSent":       "engine tests check a replicated graph exchanges messages",
	"grade10/internal/pgsim.Stats.BarrierWait":        "engine tests check workers wait at barriers",
	"grade10/internal/dataflowsim.Result.StageRows":   "engine tests check each stage's input rows follow the selectivities",
}

// TestNoTestOnlyFields fails when an exported field of an exported struct
// under cmd/ or internal/ is never read by production code: only tests read
// it, or nothing does, so whatever computes it is dead weight. A read is a
// field selector anywhere but an assignment's left side or an increment; a
// json tag counts as a read, because encoding/json reads the field. As in
// the other ratchets, perfbench counts as production and the test oracles
// are exempt. Embedded fields are exempt: they are read through the fields
// and methods they promote.
func TestNoTestOnlyFields(t *testing.T) {
	c := scanModule(t)
	var unread []string
	kept := map[string]bool{}
	for pos, key := range c.fields {
		if c.fieldRead[pos] {
			continue
		}
		if _, keep := keepFields[key]; keep {
			kept[key] = true
		} else {
			unread = append(unread, key)
		}
	}
	sort.Strings(unread)
	for _, key := range unread {
		t.Errorf("%s is an exported field no production code reads: delete it and the code that computes it", key)
	}
	for key := range keepFields {
		if !kept[key] {
			t.Errorf("keepFields exempts %s, which is gone or read by production: drop the exemption", key)
		}
	}
}

var (
	moduleOnce    sync.Once
	moduleChecker *exportChecker
	moduleErr     error
)

// scanModule type-checks every package of the module once and shares the
// result between the tests of this file.
func scanModule(t *testing.T) *exportChecker {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	moduleOnce.Do(func() {
		c := newExportChecker()
		var dirs []string
		moduleErr = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if d.IsDir() {
				dirs = append(dirs, path)
			}
			return nil
		})
		for _, dir := range dirs {
			if moduleErr != nil {
				break
			}
			moduleErr = c.scanDir(dir)
		}
		moduleChecker = c
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleChecker
}

// exportDecl is one exported function or method declared under cmd/ or
// internal/.
type exportDecl struct {
	name   string
	method bool
}

type exportChecker struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*types.Package // module packages, non-test files only
	module string

	decls          map[string]*exportDecl
	prod, test     map[string]bool
	prodIfaceNames map[string]bool // interface methods production calls

	// Option fields are keyed by declaration position, which is stable
	// across the several type-checks of one package.
	options   map[string]string // position -> pkg.Type.Field
	optionSet map[string]bool   // positions production outside the package writes

	// Exported struct fields, keyed by declaration position like options.
	fields    map[string]string // position -> pkg.Type.Field
	fieldRead map[string]bool   // positions production reads
}

func newExportChecker() *exportChecker {
	fset := token.NewFileSet()
	return &exportChecker{
		fset: fset, std: importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{}, module: "grade10",
		decls: map[string]*exportDecl{}, prod: map[string]bool{}, test: map[string]bool{},
		prodIfaceNames: map[string]bool{},
		options:        map[string]string{}, optionSet: map[string]bool{},
		fields: map[string]string{}, fieldRead: map[string]bool{},
	}
}

// Import resolves module packages from their non-test files and the
// standard library from source.
func (c *exportChecker) Import(path string) (*types.Package, error) {
	if path != c.module && !strings.HasPrefix(path, c.module+"/") {
		return c.std.Import(path)
	}
	if pkg, ok := c.pkgs[path]; ok {
		return pkg, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, c.module), "/")
	if dir == "" {
		dir = "."
	}
	files, err := c.parse(dir, func(name string) bool { return !strings.HasSuffix(name, "_test.go") })
	if err != nil {
		return nil, err
	}
	pkg, _ := c.check(path, files)
	c.pkgs[path] = pkg
	return pkg, nil
}

func (c *exportChecker) parse(dir string, keep func(string) bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || !keep(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as one package, tolerating errors: an external
// test package may use names that only its package's export_test.go
// declares.
func (c *exportChecker) check(path string, files []*ast.File) (*types.Package, *types.Info) {
	info := &types.Info{
		Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: c, Error: func(error) {}}
	pkg, _ := conf.Check(path, c.fset, files, info)
	return pkg, info
}

// scanDir records the references from one directory's files and, under
// cmd/ and internal/, its exported declarations.
func (c *exportChecker) scanDir(dir string) error {
	dir = filepath.ToSlash(dir)
	path := c.module
	if dir != "." {
		path += "/" + dir
	}
	byPkg := map[string][]*ast.File{}
	files, err := c.parse(dir, func(string) bool { return true })
	if err != nil || len(files) == 0 {
		return err
	}
	for _, f := range files {
		byPkg[f.Name.Name] = append(byPkg[f.Name.Name], f)
	}
	for name, pf := range byPkg {
		pkgPath := path
		if strings.HasSuffix(name, "_test") {
			pkgPath += "_test"
		}
		_, info := c.check(pkgPath, pf)
		for _, f := range pf {
			if !strings.HasSuffix(c.fset.Position(f.Pos()).Filename, "_test.go") {
				c.recordWrites(pkgPath, f, info)
				c.recordReads(f, info)
			}
		}
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || !fn.Exported() {
				continue
			}
			file := c.fset.Position(id.Pos()).Filename
			isTest := strings.HasSuffix(file, "_test.go")
			key, iface := funcKey(fn.Origin())
			switch {
			case isTest:
				c.test[key] = true
			case iface:
				c.prodIfaceNames[fn.Name()] = true
			default:
				c.prod[key] = true
			}
		}
	}
	if !(strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "internal/")) || testOracles[dir] {
		return nil
	}
	pkg, err := c.Import(path)
	if err != nil || pkg == nil {
		return err
	}
	scope := pkg.Scope()
	for _, n := range scope.Names() {
		obj := scope.Lookup(n)
		if fn, ok := obj.(*types.Func); ok && fn.Exported() {
			key, _ := funcKey(fn)
			c.decls[key] = &exportDecl{name: fn.Name()}
		}
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if ok && tn.Exported() {
			option := !simulatorConfigs[dir] &&
				(strings.HasSuffix(tn.Name(), "Config") || strings.HasSuffix(tn.Name(), "Options"))
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() {
					continue
				}
				pos, key := c.fset.Position(f.Pos()).String(), path+"."+tn.Name()+"."+f.Name()
				c.fields[pos] = key
				if tag := reflect.StructTag(st.Tag(i)).Get("json"); tag != "" && tag != "-" {
					c.fieldRead[pos] = true
				}
				if _, hook := f.Type().Underlying().(*types.Signature); option && !hook {
					c.options[pos] = key
				}
			}
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Exported() {
				key, _ := funcKey(m)
				c.decls[key] = &exportDecl{name: m.Name(), method: true}
			}
		}
	}
	return nil
}

// recordWrites marks the struct fields one production file of package
// pkgPath sets, unless the field is declared in that package.
func (c *exportChecker) recordWrites(pkgPath string, f *ast.File, info *types.Info) {
	mark := func(obj types.Object) {
		if v, ok := obj.(*types.Var); ok && v.IsField() && v.Pkg() != nil && v.Pkg().Path() != pkgPath {
			c.optionSet[c.fset.Position(v.Pos()).String()] = true
		}
	}
	markSel := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				mark(s.Obj())
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				return true
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						mark(info.Uses[id])
					}
				} else if i < st.NumFields() {
					mark(st.Field(i))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markSel(lhs)
			}
		case *ast.IncDecStmt:
			markSel(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				markSel(n.X)
			}
		}
		return true
	})
}

// recordReads marks the struct fields one production file reads: every
// field selector but those an assignment or increment writes to.
func (c *exportChecker) recordReads(f *ast.File, info *types.Info) {
	written := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				written[ast.Unparen(lhs)] = true
			}
		case *ast.IncDecStmt:
			written[ast.Unparen(n.X)] = true
		case *ast.SelectorExpr:
			if s := info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !written[n] {
				c.fieldRead[c.fset.Position(s.Obj().Pos()).String()] = true
			}
		}
		return true
	})
}

// funcKey names a function as import path, receiver type, and name; iface
// reports a method declared by an interface.
func funcKey(fn *types.Func) (string, bool) {
	sig := fn.Type().(*types.Signature)
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if sig.Recv() == nil {
		return pkg + "." + fn.Name(), false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch rt := t.(type) {
	case *types.Named:
		_, iface := rt.Underlying().(*types.Interface)
		return pkg + "." + rt.Obj().Name() + "." + fn.Name(), iface
	case *types.Interface:
		return pkg + ".interface." + fn.Name(), true
	}
	return pkg + "." + fn.Name(), false
}
