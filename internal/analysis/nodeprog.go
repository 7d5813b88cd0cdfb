package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"boolcube/internal/analysis/flow"
)

// runNodeprog enforces the simnet concurrency contract on node programs:
// closures handed to Simulate/SimulateLoads/(*Engine).Run run once per
// node, and backends may run different nodes' code concurrently (livenet
// always, simnet's sharded scheduler across shards). Any write
// to captured state is therefore a data race unless it is partitioned by
// the node's identity — indexed by a value derived from nd.ID(), or
// dominated by an `if nd.ID() == ...` single-writer guard.
func runNodeprog(mod *Module, p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch calleeName(call) {
			case "Simulate", "SimulateLoads", "Run":
			default:
				return true
			}
			for _, arg := range call.Args {
				lit, ok := arg.(*ast.FuncLit)
				if !ok {
					continue
				}
				if param := p.nodeParam(lit); param != nil {
					out = append(out, p.checkNodeProg(lit, param)...)
				}
			}
			return true
		})
	}
	return out
}

// nodeParam returns the identifier of the closure's single node-handle
// parameter — *simnet.Node, *livenet.Node, the fabric.Node interface, or
// boolcube.Node — or nil if the closure does not look like a node program.
func (p *Package) nodeParam(lit *ast.FuncLit) *ast.Ident {
	params := lit.Type.Params.List
	if len(params) != 1 || len(params[0].Names) != 1 {
		return nil
	}
	if !p.isNodeParamType(params[0].Type) {
		return nil
	}
	return params[0].Names[0]
}

// checkNodeProg analyzes one node-program closure.
func (p *Package) checkNodeProg(lit *ast.FuncLit, param *ast.Ident) []Finding {
	nodeObj := p.objOf(param)
	if nodeObj == nil {
		return nil // no type info at all; nothing reliable to say
	}
	scope := flow.NodeSpan(lit)

	// Derivation fixpoint: objects whose value derives from the node
	// handle. Writing captured[i] is safe when i is node-derived.
	derived := flow.NewSet(p.Info, scope, flow.Derived)
	derived.Seed(nodeObj)
	derived.Solve(lit.Body)
	derivedObjs := map[types.Object]bool{}
	for o := range derived.Objects() {
		derivedObjs[o] = true
	}

	// Single-writer guards: bodies of `if <cond>` where the condition
	// compares a node-derived value with ==. Only one node takes the
	// branch, so unpartitioned writes inside it cannot race.
	var guards []flow.Span
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		ifst, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		eq := false
		ast.Inspect(ifst.Cond, func(c ast.Node) bool {
			if b, ok := c.(*ast.BinaryExpr); ok && b.Op == token.EQL &&
				(flow.Mentions(p.Info, b.X, derivedObjs) || flow.Mentions(p.Info, b.Y, derivedObjs)) {
				eq = true
			}
			return !eq
		})
		if eq {
			guards = append(guards, flow.NodeSpan(ifst.Body))
		}
		return true
	})
	guarded := func(pos token.Pos) bool {
		for _, g := range guards {
			if g.Contains(pos) {
				return true
			}
		}
		return false
	}

	var out []Finding
	report := func(at ast.Node, root *ast.Ident, indexed bool) {
		if guarded(at.Pos()) {
			return
		}
		if indexed {
			out = append(out, p.finding("nodeprog", at, fmt.Sprintf(
				"node program writes captured %q with an index not derived from %s.ID(); concurrent node prologues/epilogues race (simnet concurrency contract)",
				root.Name, param.Name)))
			return
		}
		out = append(out, p.finding("nodeprog", at, fmt.Sprintf(
			"node program writes captured variable %q; every node runs this concurrently — partition by %s.ID() or move the write outside the program",
			root.Name, param.Name)))
	}

	checkWrite := func(at ast.Node, lhs ast.Expr) {
		root := flow.BaseIdent(lhs)
		if root == nil || root.Name == "_" {
			return
		}
		obj := p.objOf(root)
		if obj == nil || derived.Local(obj) {
			return
		}
		// Collect index expressions along the access path; any one of them
		// mentioning a node-derived value partitions the write.
		indexed := false
		for e := ast.Unparen(lhs); ; {
			switch x := e.(type) {
			case *ast.IndexExpr:
				indexed = true
				if flow.Mentions(p.Info, x.Index, derivedObjs) {
					return // partitioned by node identity
				}
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				e = x.X
			default:
				report(at, root, indexed)
				return
			}
		}
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				checkWrite(st, lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(st, st.X)
		}
		return true
	})
	return out
}
