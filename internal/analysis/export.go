package analysis

import (
	"go/ast"
	"path/filepath"

	"hbspk/internal/obsv"
)

// CommGraphDocOf exports the static communication topology of the
// loaded packages in the stable hbspk-commgraph/1 wire format: per
// function, per superstep segment of commgraph's walk, the send edges
// (endpoints and tags folded to decimal literals where the analysis
// can, "*" where it cannot) and the collective call closing the
// segment. The document is the static half of the conformance gate
// (obsv.CheckConformance) and a machine-readable artifact in its own
// right (hbspk-vet -commgraph-out).
func CommGraphDocOf(pkgs []*Package, module string) *obsv.CommGraphDoc {
	doc := &obsv.CommGraphDoc{Schema: obsv.CommGraphSchema, Module: module}
	for _, pkg := range pkgs {
		pass := &Pass{
			Analyzer:  CommGraph,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(Diagnostic) {},
			pkg:       pkg,
		}
		g := sharedCallGraph(pass)
		pg := obsv.PkgGraph{Path: pkg.Path}
		for _, f := range pkg.Files {
			funcBodies(f, func(name string, body *ast.BlockStmt) {
				bc := walkComm(pass, g, body)
				if len(bc.segs) == 0 {
					return
				}
				pos := pkg.Fset.Position(body.Pos())
				fg := obsv.FuncGraph{Name: name, File: filepath.Base(pos.Filename), Line: pos.Line}
				for i, s := range bc.segs {
					topo := obsv.StepTopo{Index: i, Sync: s.label, Loop: s.loop}
					for _, e := range s.sends {
						// The sender is whichever pid executes the line.
						topo.Edges = append(topo.Edges, obsv.CommEdge{Src: "*", Dst: e.dst, Tag: e.tag})
					}
					if s.coll {
						topo.Collectives = []string{s.label}
					}
					fg.Steps = append(fg.Steps, topo)
				}
				pg.Funcs = append(pg.Funcs, fg)
			})
		}
		if len(pg.Funcs) > 0 {
			doc.Packages = append(doc.Packages, pg)
		}
	}
	doc.Normalize()
	return doc
}
