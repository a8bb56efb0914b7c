package lint

import (
	"fmt"
	"go/types"
	"sort"
	"strings"
)

// checkPurity walks the call graph from the configured encode roots
// (MarshalBinary methods, checkpoint snapshot encoders) and reports
// every reachable nondeterminism source. Replay bit-identity — the
// crash-recovery contract and the reproducibility premise of every
// regenerated experiment table — holds only if serialized bytes are a
// pure function of sketch state, so nothing on an encode path may read
// the wall clock, draw from the process-global RNG, or iterate a map in
// a way that leaks the (randomized) iteration order into the output.
func checkPurity(c *Checker) []Finding {
	roots := c.purityRoots()
	if len(roots) == 0 {
		return nil
	}
	// Multi-source BFS with parent links for path reporting.
	parent := make(map[*types.Func]*types.Func)
	visited := make(map[*types.Func]bool)
	var queue []*types.Func
	for _, r := range roots {
		if !visited[r.fn] {
			visited[r.fn] = true
			queue = append(queue, r.fn)
		}
	}
	var out []Finding
	report := func(fn *types.Func, node *funcNode) {
		for _, op := range node.ops {
			var what string
			switch op.kind {
			case opTimeNow:
				what = fmt.Sprintf("calls %s (wall-clock read)", op.detail)
			case opGlobalRand:
				what = fmt.Sprintf("calls %s (process-global RNG)", op.detail)
			case opMapRange:
				what = fmt.Sprintf("ranges over map %s with order-leaking loop body; collect and sort the keys first", op.detail)
			}
			out = append(out, Finding{
				Pos:  node.pkg.Fset.Position(op.pos),
				Rule: RulePurity,
				Msg:  fmt.Sprintf("%s on a deterministic encode path (%s); serialized bytes must be a pure function of state", what, pathTo(parent, fn)),
			})
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node, ok := c.nodes[fn]
		if !ok {
			continue // declared outside the module (stdlib): no body to walk
		}
		report(fn, node)
		for _, callee := range node.callees {
			if !visited[callee] {
				visited[callee] = true
				parent[callee] = fn
				queue = append(queue, callee)
			}
		}
	}
	return out
}

// purityRoots resolves Config.PurityRootMethods (any module method with
// that name) and Config.PurityRootFuncs ("relpath.Name" entries) to
// graph nodes, in deterministic order.
func (c *Checker) purityRoots() []*funcNode {
	methods := make(map[string]bool, len(c.Cfg.PurityRootMethods))
	for _, m := range c.Cfg.PurityRootMethods {
		methods[m] = true
	}
	funcs := make(map[string]bool, len(c.Cfg.PurityRootFuncs))
	for _, f := range c.Cfg.PurityRootFuncs {
		funcs[f] = true
	}
	var out []*funcNode
	for fn, node := range c.nodes {
		isMethodRoot := sig(fn).Recv() != nil && methods[fn.Name()]
		if isMethodRoot || funcs[node.pkg.RelPath+"."+fn.Name()] {
			out = append(out, node)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].decl.Pos() < out[j].decl.Pos() })
	return out
}

// pathTo renders the BFS call chain from a root to fn, e.g.
// "reachable from Sketch.MarshalBinary via Sketch.MarshalBinary →
// DenseStore.ForEach".
func pathTo(parent map[*types.Func]*types.Func, fn *types.Func) string {
	var chain []string
	for f := fn; f != nil; f = parent[f] {
		chain = append(chain, shortName(f))
	}
	// chain is leaf→root; reverse it.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	if len(chain) == 1 {
		return "in encode root " + chain[0]
	}
	const maxHops = 6
	if len(chain) > maxHops {
		chain = append(chain[:maxHops-1], "…", chain[len(chain)-1])
	}
	return "reachable from " + chain[0] + " via " + strings.Join(chain[1:], " → ")
}
