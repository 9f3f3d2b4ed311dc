package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SnapCover mechanizes checkpoint completeness (docs/checkpoint.md): a
// field added to any struct reachable from a checkpoint root must either
// be written by the encode-side snapshot code or carry an explicit
// //simany:derived <why it is not part of the compared state> annotation.
// Restore is verified replay: what the encoders write is what a resumed
// run is byte-compared against, so a new mutable field nobody encodes is a
// field whose divergence no resume can detect.
//
// Roots are discovered structurally, not by name: every module struct
// with a method taking *snap.Encoder (the per-shard Snapshottable roots,
// Kernel.RegisterSnapshot externals, the rt TaskCodec) and every struct
// parameter of such a function (taskMeta) is a root.
// Reachability then follows covered fields through pointers, slices,
// arrays and maps into other module structs.
//
// Coverage is deliberately encode-side only. The encode functions are
// those with a *snap.Encoder parameter or constructing one via
// snap.NewEncoder, their direct module callees (Runtime.statFields-style
// helpers), the function literals they contain, and — for kernel
// bookkeeping spread around the container plumbing — functions that
// mention the snap package without being decode-side. A field referenced
// only by decode code (the obs.* splice is the one decoder left) is still
// a finding: an un-encoded field is never compared. Deleting one field's
// encode line therefore fails CI with exactly that field named.
//
// Exempt without annotation: blank fields, function- and channel-typed
// fields (never serializable), maps with function values (dispatch
// tables), and sync.Mutex/RWMutex/Once/WaitGroup (host-side guards). A
// bare //simany:derived with no justification is itself a finding.
var SnapCover = &Analyzer{
	Name: "snapcover",
	Doc:  "require checkpoint-reachable struct fields to be encoded or annotated //simany:derived",
	Run:  runSnapCover,
}

func runSnapCover(prog *Program, p *Package, r *Reporter) {
	g := prog.CallGraph()
	g.snapOnce.Do(func() { g.snapDiags = snapCoverFindings(prog, g) })
	for _, d := range g.snapDiags {
		if d.pkg == p.Path {
			r.Report(d.pos, d.rule, "%s", d.msg)
		}
	}
}

func snapCoverFindings(prog *Program, g *CallGraph) []pkgDiag {
	snapPath := prog.Module + "/internal/snap"
	var diags []pkgDiag

	// Field annotations: //simany:derived <why>, on the field's doc
	// comment or trailing line comment. Keyed by field position so both
	// named and embedded fields resolve from their types.Var.
	annotated := make(map[token.Pos]bool)
	for _, p := range prog.Pkgs {
		if p.Path == snapPath {
			continue
		}
		for _, f := range p.Files {
			pkgPath := p.Path
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok || st.Fields == nil {
					return true
				}
				for _, field := range st.Fields.List {
					just, found := derivedAnnotation(field)
					if !found {
						continue
					}
					annotated[field.Pos()] = true
					for _, name := range field.Names {
						annotated[name.Pos()] = true
					}
					if just == "" {
						diags = append(diags, pkgDiag{
							pkg: pkgPath, pos: field.Pos(), rule: "snapcover",
							msg: "//simany:derived needs a justification: say why the field is not part of the compared checkpoint state",
						})
					}
				}
				return true
			})
		}
	}

	// Classify the call-graph nodes into encode side / decode side.
	encPtr := func(t types.Type) bool { return isSnapPtr(t, snapPath, "Encoder") }
	decPtr := func(t types.Type) bool { return isSnapPtr(t, snapPath, "Decoder") }
	isEnc := make(map[*Node]bool)
	isDec := make(map[*Node]bool)
	var encNodes, snapRefNodes []*Node
	for _, n := range g.Nodes {
		if n.Pkg.Path == snapPath {
			continue
		}
		dec := hasParamOfType(n.Sig, decPtr) || refsSnapSel(n, snapPath, "NewDecoder")
		enc := hasParamOfType(n.Sig, encPtr) || refsSnapSel(n, snapPath, "NewEncoder")
		if dec && !enc {
			isDec[n] = true
			continue
		}
		if enc {
			isEnc[n] = true
			encNodes = append(encNodes, n)
		}
	}
	if len(encNodes) == 0 {
		return diags // no checkpoint code in the loaded packages
	}
	// Container plumbing: mentions snap without being encode or decode.
	for _, n := range g.Nodes {
		if isEnc[n] || isDec[n] || n.Pkg.Path == snapPath {
			continue
		}
		if refsSnapSel(n, snapPath, "") || signatureUsesPkg(n.Sig, snapPath) {
			snapRefNodes = append(snapRefNodes, n)
		}
	}

	// The coverage set: encode nodes, their direct module callees, the
	// container plumbing, and every literal lexically inside any of them.
	covFn := make(map[*Node]bool)
	for _, n := range encNodes {
		covFn[n] = true
		for _, e := range n.Calls {
			if e.To != nil && e.To.Pkg.Path != snapPath && !isDec[e.To] {
				covFn[e.To] = true
			}
		}
	}
	for _, n := range snapRefNodes {
		covFn[n] = true
	}
	for _, n := range g.Nodes {
		if n.Lit == nil {
			continue
		}
		for e := n.Encl; e != nil; e = e.Encl {
			if covFn[e] {
				covFn[n] = true
				break
			}
		}
	}

	// Covered fields: every field object the coverage set references
	// (selectors and composite-literal keys both resolve through Uses).
	covered := make(map[*types.Var]bool)
	for n := range covFn {
		walkOwnBody(n, func(e ast.Node) {
			id, ok := e.(*ast.Ident)
			if !ok {
				return
			}
			if v, ok := n.Pkg.Info.Uses[id].(*types.Var); ok && v.IsField() {
				covered[v] = true
			}
		})
	}

	// Roots: receiver and struct parameters of the encode functions.
	type via struct {
		parent *types.Named
		field  string
	}
	parents := make(map[*types.Named]via)
	seen := make(map[*types.Named]bool)
	var queue []*types.Named
	add := func(n *types.Named, v via) {
		if n == nil || seen[n] {
			return
		}
		obj := n.Obj()
		if obj.Pkg() == nil || obj.Pkg().Path() == snapPath {
			return
		}
		path := obj.Pkg().Path()
		if path != prog.Module && !strings.HasPrefix(path, prog.Module+"/") {
			return
		}
		if _, ok := n.Underlying().(*types.Struct); !ok {
			return
		}
		seen[n] = true
		parents[n] = v
		queue = append(queue, n)
	}
	for _, n := range encNodes {
		if n.Sig == nil {
			continue
		}
		if recv := n.Sig.Recv(); recv != nil {
			add(baseNamed(recv.Type()), via{})
		}
		params := n.Sig.Params()
		for i := 0; i < params.Len(); i++ {
			t := params.At(i).Type()
			if encPtr(t) {
				continue
			}
			add(baseNamed(t), via{})
		}
	}

	// Breadth-first over covered fields.
	chain := func(n *types.Named) string {
		var hops []string
		for cur := n; ; {
			v := parents[cur]
			if v.parent == nil {
				if len(hops) == 0 {
					return "checkpoint root " + cur.Obj().Name()
				}
				return "root " + cur.Obj().Name() + " via " + strings.Join(hops, " → ")
			}
			hops = append([]string{v.parent.Obj().Name() + "." + v.field}, hops...)
			cur = v.parent
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		st := n.Underlying().(*types.Struct)
		owner := n.Obj().Pkg().Path()
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" || annotated[f.Pos()] || exemptFieldType(f.Type()) {
				continue
			}
			if !covered[f] {
				diags = append(diags, pkgDiag{
					pkg: owner, pos: f.Pos(), rule: "snapcover",
					msg: "field " + n.Obj().Name() + "." + f.Name() +
						" (" + chain(n) + ") is never referenced by encode-side snapshot code; serialize it or annotate //simany:derived <why it is not part of the compared state>",
				})
				continue
			}
			namedStructsIn(f.Type(), func(m *types.Named) {
				add(m, via{parent: n, field: f.Name()})
			})
		}
	}
	return diags
}

// derivedAnnotation extracts a field's //simany:derived marker, reporting
// whether one exists and its justification text.
func derivedAnnotation(field *ast.Field) (just string, found bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, "simany:derived"); ok {
				return strings.TrimSpace(rest), true
			}
		}
	}
	return "", false
}

// isSnapPtr reports whether t is *<module>/internal/snap.<name>.
func isSnapPtr(t types.Type, snapPath, name string) bool {
	p, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(p.Elem()).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == snapPath
}

// hasParamOfType reports whether any parameter of sig satisfies pred.
func hasParamOfType(sig *types.Signature, pred func(types.Type) bool) bool {
	if sig == nil {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if pred(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// refsSnapSel reports whether n's own body contains a snap.<name>
// selector (any snap selector when name is "").
func refsSnapSel(n *Node, snapPath, name string) bool {
	found := false
	walkOwnBody(n, func(e ast.Node) {
		if found {
			return
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return
		}
		pn := pkgNameOf(n.Pkg.Info, sel.X)
		if pn != nil && pn.Imported().Path() == snapPath &&
			(name == "" || sel.Sel.Name == name) {
			found = true
		}
	})
	return found
}

// signatureUsesPkg reports whether any parameter or result of sig names a
// type from pkgPath (snap.Container plumbing).
func signatureUsesPkg(sig *types.Signature, pkgPath string) bool {
	if sig == nil {
		return false
	}
	check := func(tup *types.Tuple) bool {
		for i := 0; i < tup.Len(); i++ {
			if typeUsesPkg(tup.At(i).Type(), pkgPath, 0) {
				return true
			}
		}
		return false
	}
	return check(sig.Params()) || check(sig.Results())
}

func typeUsesPkg(t types.Type, pkgPath string, depth int) bool {
	if depth > 4 {
		return false
	}
	switch tt := types.Unalias(t).(type) {
	case *types.Pointer:
		return typeUsesPkg(tt.Elem(), pkgPath, depth+1)
	case *types.Slice:
		return typeUsesPkg(tt.Elem(), pkgPath, depth+1)
	case *types.Array:
		return typeUsesPkg(tt.Elem(), pkgPath, depth+1)
	case *types.Map:
		return typeUsesPkg(tt.Key(), pkgPath, depth+1) ||
			typeUsesPkg(tt.Elem(), pkgPath, depth+1)
	case *types.Named:
		obj := tt.Obj()
		return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
	}
	return false
}

// exemptFieldType reports whether a field type can never hold checkpoint
// state: functions, channels, func-valued maps, and sync guards.
func exemptFieldType(t types.Type) bool {
	for {
		switch tt := types.Unalias(t).(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Slice:
			t = tt.Elem()
		case *types.Array:
			t = tt.Elem()
		case *types.Map:
			t = tt.Elem() // a map with func/chan values is a dispatch table
		case *types.Signature, *types.Chan:
			return true
		case *types.Named:
			obj := tt.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
				switch obj.Name() {
				case "Mutex", "RWMutex", "Once", "WaitGroup":
					return true
				}
				return false
			}
			switch tt.Underlying().(type) {
			case *types.Signature, *types.Chan:
				return true
			}
			return false
		default:
			return false
		}
	}
}

// baseNamed strips pointers off t and returns the named type, nil if the
// result is not named.
func baseNamed(t types.Type) *types.Named {
	for {
		switch tt := types.Unalias(t).(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// namedStructsIn visits the module named struct types contained in t
// (through pointers, slices, arrays and map keys/values).
func namedStructsIn(t types.Type, visit func(*types.Named)) {
	var rec func(types.Type, int)
	rec = func(t types.Type, depth int) {
		if depth > 6 {
			return
		}
		switch tt := types.Unalias(t).(type) {
		case *types.Pointer:
			rec(tt.Elem(), depth+1)
		case *types.Slice:
			rec(tt.Elem(), depth+1)
		case *types.Array:
			rec(tt.Elem(), depth+1)
		case *types.Map:
			rec(tt.Key(), depth+1)
			rec(tt.Elem(), depth+1)
		case *types.Named:
			visit(tt) // the add callback filters for module structs
		}
	}
	rec(t, 0)
}
