package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// repoRoot walks up from the package directory to the module root (the
// directory holding go.mod), so the checks work from any test cwd.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the test directory")
		}
		dir = parent
	}
}

// markdownFiles lists the documents under link protection: the top-level
// markdown files and everything in docs/.
func markdownFiles(t *testing.T, root string) []string {
	t.Helper()
	files := []string{"README.md", "ROADMAP.md"}
	entries, err := os.ReadDir(filepath.Join(root, "docs"))
	if err != nil {
		t.Fatalf("reading docs/: %v", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	return files
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinksResolve: every relative markdown link in README,
// ROADMAP and docs/ must point at an existing file or directory. External
// (http/https/mailto) links and pure in-page anchors are skipped.
func TestMarkdownLinksResolve(t *testing.T) {
	root := repoRoot(t)
	for _, rel := range markdownFiles(t, root) {
		blob, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Errorf("%s: %v", rel, err)
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(blob), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(root, filepath.Dir(rel), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", rel, m[1], resolved)
			}
		}
	}
}

// TestExportedSymbolsDocumented: every exported top-level identifier in
// the public nd package must carry a doc comment — the package is the
// library's face, and an undocumented export is an API regression. A doc
// comment on a grouped const/var/type declaration covers its members.
func TestExportedSymbolsDocumented(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join(root, "nd"), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for fname, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() && d.Doc == nil {
						t.Errorf("%s: exported function %s has no doc comment",
							relPos(fset, root, d.Pos(), fname), d.Name.Name)
					}
				case *ast.GenDecl:
					checkGenDecl(t, fset, root, fname, d)
				}
			}
		}
	}
}

func checkGenDecl(t *testing.T, fset *token.FileSet, root, fname string, d *ast.GenDecl) {
	t.Helper()
	groupDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch sp := spec.(type) {
		case *ast.TypeSpec:
			if sp.Name.IsExported() && !groupDoc && sp.Doc == nil && sp.Comment == nil {
				t.Errorf("%s: exported type %s has no doc comment",
					relPos(fset, root, sp.Pos(), fname), sp.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range sp.Names {
				if name.IsExported() && !groupDoc && sp.Doc == nil && sp.Comment == nil {
					t.Errorf("%s: exported %s has no doc comment",
						relPos(fset, root, sp.Pos(), fname), name.Name)
				}
			}
		}
	}
}

// TestRequiredDocSections: the hot-path, sharding, service and
// observability layers must stay documented — the architecture guide
// needs its Hot path & exact mode, Sharded execution, Service layer and
// Observability sections, and the README must cover the exact-mode flag,
// the shard/merge/journal flags, the ndd daemon (flags and endpoints),
// the progress flag, the profiling flags and the benchmark trajectory
// workflow. A doc that silently drops one of these would strand the
// features it explains.
func TestRequiredDocSections(t *testing.T) {
	root := repoRoot(t)
	requirements := map[string][]string{
		"docs/ARCHITECTURE.md": {
			"## Hot path & exact mode",
			"Scratch",
			"exact_mode",
			"batch windows",
			"## Sharded execution",
			"ndshard/2",
			"ndjournal/2",
			"continuation",
			"## Service layer",
			"POST /v1/jobs",
			"singleflight",
			"result_cache_hit",
			"Last-Event-ID",
			"resumed_points",
			"## Observability",
			"RunMetrics",
			"StripRuntime",
			"BENCH_",
			"## Correctness tooling",
			"nodeterminism",
			"maprange",
			"intaccum",
			"atomicfields",
			"goldenpurity",
			"ndlint.json",
			"cmd/ndlint",
		},
		"README.md": {
			"-exact",
			"exact_mode",
			"-shard",
			"-merge",
			"-snapshot",
			"-resume",
			"-journal",
			"-strip",
			"ndshard/2",
			"## The ndd daemon",
			"-addr",
			"-runners",
			"/v1/jobs",
			"/healthz",
			"Retry-After",
			"-progress",
			"-cpuprofile",
			"-memprofile",
			"-trace",
			"ndbench",
			"BENCH_",
			"ndlint",
			"ndlint.json",
			"docs/ARCHITECTURE.md",
		},
	}
	for rel, wants := range requirements {
		blob, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Errorf("%s: %v", rel, err)
			continue
		}
		text := string(blob)
		for _, want := range wants {
			if !strings.Contains(text, want) {
				t.Errorf("%s: required documentation %q missing", rel, want)
			}
		}
	}
}

func relPos(fset *token.FileSet, root string, pos token.Pos, fallback string) string {
	p := fset.Position(pos)
	if p.Filename == "" {
		return fallback
	}
	if rel, err := filepath.Rel(root, p.Filename); err == nil {
		return rel + ":" + strconv.Itoa(p.Line)
	}
	return p.Filename
}
