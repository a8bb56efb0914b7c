package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Rule names, used in findings, suppression directives, and for
// enabling/disabling on the CLI.
const (
	// RuleUncheckedErr flags discarded errors from the sketch contract
	// methods (Quantile, Rank, Merge, UnmarshalBinary).
	RuleUncheckedErr = "unchecked-err"
	// RuleFloatEq flags == / != between non-constant float operands.
	RuleFloatEq = "float-eq"
	// RuleGlobalRand flags the global math/rand source inside internal/.
	RuleGlobalRand = "global-rand"
	// RulePanic flags panic in sketch packages outside invariant files
	// and functions that do not document the panic.
	RulePanic = "panic"
	// RuleContainerHeap flags container/heap imports in the stream
	// engine packages.
	RuleContainerHeap = "container-heap"
	// RuleQuantileLoop flags loops that query a sketch one quantile at a
	// time where one sketch.Quantiles call applies.
	RuleQuantileLoop = "quantile-loop"
	// RuleNakedPanic flags undocumented panic calls in the fault-tolerant
	// scopes (stream engine, checkpoint layer).
	RuleNakedPanic = "naked-panic"
	// RulePurity flags nondeterminism (wall clock, global RNG,
	// order-leaking map iteration) reachable from serialization roots.
	RulePurity = "purity"
	// RuleAtomicMix flags plain accesses to fields that are accessed via
	// sync/atomic elsewhere.
	RuleAtomicMix = "atomic-mix"
	// RuleRecoverSwallow flags recover() calls whose value is discarded
	// instead of being converted to an error.
	RuleRecoverSwallow = "recover-swallow"
	// RuleHotpathAlloc flags allocation patterns (interface boxing,
	// capturing closures, zero-capacity appends in loops) inside
	// functions annotated //sketch:hotpath.
	RuleHotpathAlloc = "hotpath-alloc"
	// RuleUnusedSuppression flags //lint:ignore directives that are
	// malformed or no longer suppress anything.
	RuleUnusedSuppression = "unused-suppression"
)

// ruleInfo is one registered rule: its name, a one-line doc string, and
// exactly one pass — per-package (pkgPass) for local rules, or
// whole-module (modPass) for rules that need the call graph or
// cross-package facts. Registration, Rules(), KnownRule and dispatch
// all read this single table, so adding a rule is one entry here plus
// its pass function.
type ruleInfo struct {
	name    string
	doc     string
	pkgPass func(c *Checker, pkg *Package) []Finding
	modPass func(c *Checker) []Finding
}

// ruleTable registers every rule, in reporting order.
var ruleTable = []ruleInfo{
	{RuleUncheckedErr, "errors from sketch contract methods must not be discarded", checkUncheckedErr, nil},
	{RuleFloatEq, "no == / != between non-constant floats", checkFloatEq, nil},
	{RuleGlobalRand, "seeded generators only; never the process-global math/rand", checkGlobalRand, nil},
	{RulePanic, "sketch packages panic only in invariant files or documented guards", checkPanic, nil},
	{RuleContainerHeap, "stream engine uses the generic non-boxing heap, not container/heap", checkContainerHeap, nil},
	{RuleQuantileLoop, "batch quantile targets through sketch.Quantiles, not per-q loops", checkQuantileLoop, nil},
	{RuleNakedPanic, "fault-tolerant scopes turn failures into errors, not panics", checkNakedPanic, nil},
	{RulePurity, "encode paths must be pure: no clock, no global RNG, no map-order leaks", nil, checkPurity},
	{RuleAtomicMix, "a field accessed via sync/atomic is never accessed plainly outside its constructor", nil, checkAtomicMix},
	{RuleRecoverSwallow, "recover() values become errors; never discarded", checkRecoverSwallow, nil},
	{RuleHotpathAlloc, "//sketch:hotpath functions avoid boxing, capturing closures, zero-cap appends", checkHotpathAlloc, nil},
	{RuleUnusedSuppression, "//lint:ignore directives must be well-formed and still suppress something", nil, nil},
}

// Rules lists every rule name, in reporting order.
func Rules() []string {
	out := make([]string, len(ruleTable))
	for i, r := range ruleTable {
		out[i] = r.name
	}
	return out
}

// RuleDocs returns a name → one-line description map for usage output.
func RuleDocs() map[string]string {
	out := make(map[string]string, len(ruleTable))
	for _, r := range ruleTable {
		out[r.name] = r.doc
	}
	return out
}

// KnownRule reports whether name is a recognized rule.
func KnownRule(name string) bool {
	for _, r := range ruleTable {
		if r.name == name {
			return true
		}
	}
	return false
}

// ValidateRules parses a comma-separated rule list (as given to the
// CLI's -rules flag) and rejects unknown names: a typo'd rule must not
// silently filter every finding and report a clean tree.
func ValidateRules(spec string) ([]string, error) {
	if spec == "" {
		return nil, nil
	}
	var out []string
	for _, r := range strings.Split(spec, ",") {
		r = strings.TrimSpace(r)
		if !KnownRule(r) {
			return nil, fmt.Errorf("unknown rule %q (known: %s)", r, strings.Join(Rules(), ", "))
		}
		out = append(out, r)
	}
	return out, nil
}

// Finding is one rule violation at a source position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Msg)
}

// Config tunes the rules to a repository layout.
type Config struct {
	// CheckedMethods are the method names whose error results must not
	// be discarded in non-test code.
	CheckedMethods []string
	// SketchPackages are module-relative package paths subject to the
	// panic rule.
	SketchPackages []string
	// GlobalRandScopes are module-relative path prefixes under which
	// the global-rand rule applies.
	GlobalRandScopes []string
	// FloatEqAllowFiles are module-relative file paths exempt from the
	// float-eq rule (for deliberate, documented exact comparisons).
	FloatEqAllowFiles []string
	// ContainerHeapScopes are module-relative path prefixes under which
	// importing container/heap is forbidden.
	ContainerHeapScopes []string
	// QuantileLoopAllowFiles are module-relative file paths exempt from
	// the quantile-loop rule (the generic per-q fallback itself).
	QuantileLoopAllowFiles []string
	// NoPanicScopes are module-relative path prefixes where naked panic
	// calls are forbidden (the fault-tolerant engine and checkpoint
	// layers, where a stray panic defeats containment and recovery).
	NoPanicScopes []string
	// RecoverScopes are module-relative path prefixes where the
	// recover-swallow rule applies.
	RecoverScopes []string
	// PurityRootMethods are method names that root the purity walk
	// wherever they are declared (the serialization entry points).
	PurityRootMethods []string
	// PurityRootFuncs are "relpath.Name" entries rooting the purity walk
	// at specific functions (checkpoint/snapshot encoders).
	PurityRootFuncs []string
}

// DefaultConfig returns the configuration used for this repository.
func DefaultConfig() Config {
	return Config{
		CheckedMethods: []string{"Quantile", "Rank", "Merge", "UnmarshalBinary"},
		SketchPackages: []string{
			"internal/sketch",
			"internal/kll",
			"internal/kllpm",
			"internal/req",
			"internal/gk",
			"internal/ddsketch",
			"internal/uddsketch",
			"internal/moments",
			"internal/maxent",
			"internal/tdigest",
			"internal/hdr",
			"internal/mrl",
			"internal/dcs",
		},
		GlobalRandScopes:    []string{"internal"},
		FloatEqAllowFiles:   nil,
		ContainerHeapScopes: []string{"internal/stream"},
		// sketch.Quantiles itself hosts the per-q fallback loop for
		// sketches without a batch kernel.
		QuantileLoopAllowFiles: []string{"internal/sketch/sketch.go"},
		// The crash-recovery contract: engine and checkpoint code turns
		// failures into errors (or documents the panic as a programming-
		// error guard); an undocumented panic escapes the recovery layer.
		NoPanicScopes: []string{"internal/stream", "internal/checkpoint"},
		// Anywhere a panic is caught, its value must travel onward as an
		// error (the *PanicError discipline).
		RecoverScopes: []string{"internal", "cmd"},
		// Every sketch serializer, plus the engine-state encoders the
		// crash-recovery bit-identity proofs depend on.
		PurityRootMethods: []string{"MarshalBinary"},
		PurityRootFuncs: []string{
			"internal/checkpoint.EncodeSnapshot",
			"internal/stream.snapshot",
		},
	}
}

// Run executes every registered rule over the checker's module, applies
// the //lint:ignore suppressions, reports malformed or unused
// directives, and returns the surviving findings sorted by position.
func (c *Checker) Run() []Finding {
	var out []Finding
	for _, r := range ruleTable {
		if r.modPass != nil {
			out = append(out, r.modPass(c)...)
		}
		if r.pkgPass == nil {
			continue
		}
		for _, pkg := range c.Pkgs {
			out = append(out, r.pkgPass(c, pkg)...)
		}
	}
	var directives []*directive
	for _, pkg := range c.Pkgs {
		directives = append(directives, parseDirectives(pkg)...)
	}
	out = applySuppressions(out, directives)
	sortFindings(out)
	return out
}

// CheckAll loads every package under root and runs the full rule suite.
func CheckAll(root string, cfg Config) ([]Finding, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		return nil, err
	}
	c, err := NewChecker(pkgs, cfg)
	if err != nil {
		return nil, err
	}
	return c.Run(), nil
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type()

// errResultIndex reports which result of a call is the error, or -1 if
// the call returns no error.
func errResultIndex(pkg *Package, call *ast.CallExpr) int {
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return -1
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errorType) {
				return i
			}
		}
	default:
		if types.Identical(t, errorType) {
			return 0
		}
	}
	return -1
}

// checkedCall returns the method name if call is a selector call to one
// of the contract methods that returns an error.
func checkedCall(pkg *Package, cfg Config, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	found := false
	for _, m := range cfg.CheckedMethods {
		if m == name {
			found = true
			break
		}
	}
	if !found {
		return "", false
	}
	// Only method calls count: a selector into a package (rand.Merge)
	// is not a sketch contract call.
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
			return "", false
		}
	}
	if errResultIndex(pkg, call) < 0 {
		return "", false
	}
	return name, true
}

// checkUncheckedErr flags contract-method calls whose error result is
// discarded: expression statements, go/defer statements, and blank
// assignments.
func checkUncheckedErr(c *Checker, pkg *Package) []Finding {
	cfg := c.Cfg
	var out []Finding
	flag := func(call *ast.CallExpr, name string) {
		out = append(out, Finding{
			Pos:  pkg.Fset.Position(call.Pos()),
			Rule: RuleUncheckedErr,
			Msg:  fmt.Sprintf("error returned by %s is discarded; handle it or assign it to a named variable", name),
		})
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					if name, ok := checkedCall(pkg, cfg, call); ok {
						flag(call, name)
					}
				}
			case *ast.GoStmt:
				if name, ok := checkedCall(pkg, cfg, st.Call); ok {
					flag(st.Call, name)
				}
			case *ast.DeferStmt:
				if name, ok := checkedCall(pkg, cfg, st.Call); ok {
					flag(st.Call, name)
				}
			case *ast.AssignStmt:
				out = append(out, checkAssignedBlank(pkg, cfg, st)...)
			}
			return true
		})
	}
	return out
}

// checkAssignedBlank flags assignments that bind a contract method's
// error result to the blank identifier.
func checkAssignedBlank(pkg *Package, cfg Config, st *ast.AssignStmt) []Finding {
	var out []Finding
	flagIfBlank := func(lhs ast.Expr, call *ast.CallExpr, name string) {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			out = append(out, Finding{
				Pos:  pkg.Fset.Position(call.Pos()),
				Rule: RuleUncheckedErr,
				Msg:  fmt.Sprintf("error returned by %s is assigned to _; handle it instead", name),
			})
		}
	}
	if len(st.Rhs) == 1 {
		if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
			name, isChecked := checkedCall(pkg, cfg, call)
			if !isChecked {
				return nil
			}
			idx := errResultIndex(pkg, call)
			if idx >= 0 && idx < len(st.Lhs) {
				flagIfBlank(st.Lhs[idx], call, name)
			}
			return out
		}
	}
	// Parallel assignment: a, b = f(), g() — each RHS yields one value.
	if len(st.Rhs) == len(st.Lhs) {
		for i, rhs := range st.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok {
				if name, isChecked := checkedCall(pkg, cfg, call); isChecked {
					flagIfBlank(st.Lhs[i], call, name)
				}
			}
		}
	}
	return out
}

// isFloatOperand reports whether e has (non-constant) floating-point
// type. Constant operands are the rule's allowlist: comparisons against
// literals like q == 1 or scale == 1.0 are deliberate sentinels.
func isFloatOperand(pkg *Package, e ast.Expr) (isFloat, isConst bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false, false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsFloat == 0 {
		return false, false
	}
	return true, tv.Value != nil
}

// checkFloatEq flags == and != where both operands are non-constant
// floats. Exact float equality is almost never what a rank or merge
// comparison wants; the fix is math.Abs(a-b) < eps for tolerances,
// math.Float64bits for exact-representation identity, or math.IsNaN.
func checkFloatEq(c *Checker, pkg *Package) []Finding {
	cfg := c.Cfg
	allow := make(map[string]bool, len(cfg.FloatEqAllowFiles))
	for _, f := range cfg.FloatEqAllowFiles {
		allow[f] = true
	}
	var out []Finding
	for _, f := range pkg.Files {
		base := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
		rel := base
		if pkg.RelPath != "" {
			rel = pkg.RelPath + "/" + base
		}
		if allow[rel] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			xf, xc := isFloatOperand(pkg, be.X)
			yf, yc := isFloatOperand(pkg, be.Y)
			if xf && yf && !xc && !yc {
				out = append(out, Finding{
					Pos:  pkg.Fset.Position(be.OpPos),
					Rule: RuleFloatEq,
					Msg:  "direct float equality; use math.Abs(a-b) < eps, math.Float64bits for exact identity, or math.IsNaN",
				})
			}
			return true
		})
	}
	return out
}

// globalRandAllowed are math/rand selectors that do not touch the
// package-global generator: constructors and type names.
var globalRandAllowed = map[string]bool{
	"New": true, "NewPCG": true, "NewChaCha8": true, "NewSource": true,
	"NewZipf": true, "Rand": true, "Source": true, "Zipf": true,
	"PCG": true, "ChaCha8": true,
}

// checkGlobalRand flags uses of the global math/rand generator inside
// the configured scopes. Experiments must be reproducible from an
// explicit seed, so internal packages go through a seeded *rand.Rand
// (internal/datagen.NewRand / SplitMix64), never the process-global
// source.
func checkGlobalRand(c *Checker, pkg *Package) []Finding {
	if !inScopes(pkg.RelPath, c.Cfg.GlobalRandScopes) {
		return nil
	}
	var out []Finding
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pkg.Info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			p := pn.Imported().Path()
			if p != "math/rand" && p != "math/rand/v2" {
				return true
			}
			if globalRandAllowed[sel.Sel.Name] {
				return true
			}
			out = append(out, Finding{
				Pos:  pkg.Fset.Position(sel.Pos()),
				Rule: RuleGlobalRand,
				Msg: fmt.Sprintf("%s.%s uses the process-global generator; use a seeded *rand.Rand (internal/datagen.NewRand) for reproducibility",
					pn.Imported().Name(), sel.Sel.Name),
			})
			return true
		})
	}
	return out
}

// checkContainerHeap flags container/heap imports inside the configured
// scopes. The stream engines sit on the per-event hot path, where the
// interface-boxed heap.Interface costs two allocations per event and an
// indirect call per sift comparison; those packages must use the
// non-boxing arrival queue and generic minHeap instead.
func checkContainerHeap(c *Checker, pkg *Package) []Finding {
	if !inScopes(pkg.RelPath, c.Cfg.ContainerHeapScopes) {
		return nil
	}
	var out []Finding
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) != "container/heap" {
				continue
			}
			out = append(out, Finding{
				Pos:  pkg.Fset.Position(imp.Pos()),
				Rule: RuleContainerHeap,
				Msg:  "container/heap boxes every element and dispatches sifts through an interface; use the package's arrival queue or generic minHeap on the stream hot path",
			})
		}
	}
	return out
}

// checkQuantileLoop flags loops that evaluate a sketch one quantile at
// a time: a range statement whose loop variable is passed to a Quantile
// method returning an error. sketch.Quantiles is the one entry point for
// a target set: DDSketch and UDDSketch answer it in one store sweep
// (their MultiQuantiler kernels) instead of one sweep per target, and
// KLL, REQ and moments reuse their cached sorted view or solve.
// Errorless Quantile helpers (exact reference values) are exempt, as are
// the files in QuantileLoopAllowFiles.
func checkQuantileLoop(c *Checker, pkg *Package) []Finding {
	cfg := c.Cfg
	allow := make(map[string]bool, len(cfg.QuantileLoopAllowFiles))
	for _, f := range cfg.QuantileLoopAllowFiles {
		allow[f] = true
	}
	var out []Finding
	for _, f := range pkg.Files {
		base := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
		rel := base
		if pkg.RelPath != "" {
			rel = pkg.RelPath + "/" + base
		}
		if allow[rel] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			loopVars := rangeVarObjs(pkg, rs)
			if len(loopVars) == 0 {
				return true
			}
			ast.Inspect(rs.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Quantile" {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok {
					if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
						return true
					}
				}
				arg, ok := call.Args[0].(*ast.Ident)
				if !ok || !loopVars[pkg.Info.Uses[arg]] {
					return true
				}
				if errResultIndex(pkg, call) < 0 {
					return true
				}
				out = append(out, Finding{
					Pos:  pkg.Fset.Position(call.Pos()),
					Rule: RuleQuantileLoop,
					Msg:  "sketch queried one quantile per iteration; batch the targets through sketch.Quantiles (one store sweep on DDSketch/UDDSketch)",
				})
				return true
			})
			return true
		})
	}
	return out
}

// rangeVarObjs collects the objects bound to a range statement's key and
// value positions (either := definitions or = reuses).
func rangeVarObjs(pkg *Package, rs *ast.RangeStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool, 2)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := pkg.Info.Defs[id]; obj != nil {
			vars[obj] = true
		} else if obj := pkg.Info.Uses[id]; obj != nil {
			vars[obj] = true
		}
	}
	return vars
}

// checkNakedPanic flags panic calls inside the fault-tolerant scopes
// (stream engine, checkpoint layer). A panic there either deadlocks a
// barrier or surfaces as a spurious "crash" the recovery machinery then
// masks, so failures must travel as errors. The one allowed escape is a
// function whose doc comment documents the panic as a deliberate
// programming-error guard. Test files are never loaded, so injected-
// fault panics in tests are out of scope by construction.
func checkNakedPanic(c *Checker, pkg *Package) []Finding {
	if !inScopes(pkg.RelPath, c.Cfg.NoPanicScopes) {
		return nil
	}
	var out []Finding
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Doc != nil && strings.Contains(strings.ToLower(fn.Doc.Text()), "panic") {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "panic" {
					return true
				}
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
					return true
				}
				out = append(out, Finding{
					Pos:  pkg.Fset.Position(call.Pos()),
					Rule: RuleNakedPanic,
					Msg:  fmt.Sprintf("naked panic in fault-tolerant scope (func %s): return an error so crash recovery can contain the failure, or document the panic in the doc comment", fn.Name.Name),
				})
				return true
			})
		}
	}
	return out
}

// checkPanic flags panic calls in sketch packages. Allowed escapes:
// files whose name contains "invariant" (the build-tag-gated assertion
// hooks), and functions whose doc comment documents the panic.
func checkPanic(c *Checker, pkg *Package) []Finding {
	isSketchPkg := false
	for _, p := range c.Cfg.SketchPackages {
		if pkg.RelPath == p {
			isSketchPkg = true
			break
		}
	}
	if !isSketchPkg {
		return nil
	}
	var out []Finding
	for _, f := range pkg.Files {
		base := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
		if strings.Contains(base, "invariant") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Doc != nil && strings.Contains(strings.ToLower(fn.Doc.Text()), "panic") {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "panic" {
					return true
				}
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
					return true
				}
				out = append(out, Finding{
					Pos:  pkg.Fset.Position(call.Pos()),
					Rule: RulePanic,
					Msg:  fmt.Sprintf("panic in sketch package (func %s): return an error, move the check to an invariant file, or document the panic in the doc comment", fn.Name.Name),
				})
				return true
			})
		}
	}
	return out
}
