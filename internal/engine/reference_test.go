package engine_test

import (
	"deadmembers/internal/ast"
	"deadmembers/internal/engine"
	"deadmembers/internal/hierarchy"
	"deadmembers/internal/parser"
	"deadmembers/internal/sema"
	"deadmembers/internal/source"
	"deadmembers/internal/types"
)

// referenceCompile is the frontend as it was before the engine: one
// goroutine, no panic containment, no cancellation. It prescans every
// file for type names, parses each file against the union of those
// names, then runs semantic analysis. It is kept as a differential
// oracle for the engine's parallel pipeline. The result always carries a
// (possibly partial) program; check the diagnostics before trusting it.
func referenceCompile(sources ...engine.Source) (*types.Program, *hierarchy.Graph, *source.DiagnosticList) {
	fset := source.NewFileSet()
	diags := source.NewDiagnosticList(fset)

	var srcFiles []*source.File
	allTypes := map[string]bool{}
	for _, s := range sources {
		f := fset.AddFile(s.Name, s.Text)
		srcFiles = append(srcFiles, f)
		if err := f.CheckSize(); err != nil {
			diags.Errorf(f.Pos(0), "%v", err)
			continue
		}
		for name := range parser.CollectTypeNames(f) {
			allTypes[name] = true
		}
	}
	var files []*ast.File
	for _, f := range srcFiles {
		if f.CheckSize() != nil {
			files = append(files, &ast.File{Name: f.Name()})
			continue
		}
		files = append(files, parser.ParseFileWithTypes(f, diags, allTypes))
	}
	prog, graph := sema.Check(fset, files, diags)
	return prog, graph, diags
}
