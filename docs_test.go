package chronicledb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// TestDocumentedNamesResolve: every Go name README.md and DESIGN.md put in
// backticks — `pkg.Ident`, `pkg.Type.Member`, `Type.Member`, and a `cmd/…`
// or `internal/…` path with or without a `.Ident` — and every such
// path in a code block names something the module's sources declare or the
// file tree holds. Spans headed by neither a package nor a type (`e.mu`,
// `wal.manifest`) are not Go names; sections headed "historical" are exempt.
func TestDocumentedNamesResolve(t *testing.T) {
	known := declaredNames(t)
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range docSpans(string(data)) {
			if ok, isName := resolve(known, span); isName {
				checked++
				if !ok {
					t.Errorf("%s names `%s`, which does not exist", doc, span)
				}
			}
		}
	}
	if checked < 100 {
		t.Errorf("checked %d documented names; the docs moved?", checked)
	}
}

var (
	fencedPath = regexp.MustCompile(`\b(cmd|internal)/[\w/.-]*\w`)
	dottedName = regexp.MustCompile(`^[A-Za-z]\w*(\.[A-Za-z]\w*)+$`)
	fileName   = regexp.MustCompile(`\.(go|md|json|sql|wal|bin|hex|txt|sh|log|manifest)$`)
)

// docSpans returns a Markdown document's backticked spans and the source
// paths in its code blocks, outside sections whose heading says historical.
func docSpans(doc string) (spans []string) {
	var text []string
	flush := func() {
		for _, m := range backticked.FindAllStringSubmatch(strings.Join(text, "\n"), -1) {
			spans = append(spans, m[1])
		}
		text = nil
	}
	skipLevel, fenced := 0, false
	for _, line := range strings.Split(doc, "\n") {
		level := len(line) - len(strings.TrimLeft(line, "#"))
		switch {
		case strings.HasPrefix(line, "```"):
			flush()
			fenced = !fenced
		case !fenced && level > 0 && strings.HasPrefix(line[level:], " "):
			flush()
			if skipLevel == 0 || level <= skipLevel {
				skipLevel = 0
				if strings.Contains(strings.ToLower(line), "historical") {
					skipLevel = level
				}
			}
		case skipLevel > 0:
		case fenced:
			spans = append(spans, fencedPath.FindAllString(line, -1)...)
		default:
			text = append(text, line)
		}
	}
	flush()
	return spans
}

// declaredNames parses the module's sources into one set of what a doc may
// name: "pkg:" for each package, "type:" for each named type, "pkg.Name" for
// each top-level name, "Type.Member" for each method and field, and
// "pkg.Member" for them too (`view.ApplyRows` is doc shorthand for
// View.ApplyRows).
func declaredNames(t *testing.T) map[string]bool {
	known := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir // tool state, the benchmark's build cache, fixtures
		case !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, typ := strings.TrimSuffix(f.Name.Name, "_test"), ""
		known["pkg:"+pkg] = true
		member := func(typ, name string) { known[typ+"."+name], known[pkg+"."+name] = true, true }
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil {
					known[pkg+"."+n.Name.Name] = true
				} else {
					member(baseName(n.Recv.List[0].Type), n.Name.Name)
				}
				return false // locals are not documented names
			case *ast.TypeSpec:
				typ = n.Name.Name
				known["type:"+typ], known[pkg+"."+typ] = true, true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					known[pkg+"."+id.Name] = true
				}
			case *ast.Field: // a struct field or interface method of typ
				for _, id := range n.Names {
					member(typ, id.Name)
				}
				if len(n.Names) == 0 {
					member(typ, baseName(n.Type))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return known
}

// baseName names the type of a receiver or an embedded field: Tree for
// *btree.Tree[K, V].
func baseName(e ast.Expr) string {
	s, _, _ := strings.Cut(types.ExprString(e), "[")
	return s[strings.LastIndexAny(s, "*.")+1:]
}

// resolve reports whether span is a Go name or a source path (isName) and,
// if it is, whether it exists.
func resolve(known map[string]bool, span string) (ok, isName bool) {
	span = strings.TrimLeft(strings.TrimPrefix(span, "./"), "*&")
	if i := strings.IndexAny(span, " ([{,:=<>|"); i >= 0 {
		span = span[:i]
	}
	if strings.HasPrefix(span, "cmd/") || strings.HasPrefix(span, "internal/") {
		dir, last := filepath.Split(span)
		if pkg, name, _ := strings.Cut(last, "."); name != "" && unicode.IsUpper(rune(name[0])) {
			// a package path and a name in it: internal/shard.TestConcurrentStress
			_, err := os.Stat(dir + pkg)
			return err == nil && inPackage(known, pkg, strings.Split(name, ".")), true
		}
		_, err := os.Stat(span)
		return err == nil, true
	}
	if !dottedName.MatchString(span) || strings.Contains(span, "_") || fileName.MatchString(span) {
		return false, false // not a dotted name, a metric name (Go names have no underscores) or a file
	}
	parts := strings.Split(span, ".")
	switch {
	case known["pkg:"+parts[0]] && parts[0] != "main":
		return inPackage(known, parts[0], parts[1:]), true
	case known["type:"+parts[0]] && unicode.IsUpper(rune(parts[0][0])):
		return known[parts[0]+"."+parts[1]], true
	}
	return false, false
}

// inPackage reports whether names — a name in package pkg, and optionally a
// member of it — exist.
func inPackage(known map[string]bool, pkg string, names []string) bool {
	return known[pkg+"."+names[0]] && (len(names) == 1 || known[names[0]+"."+names[1]])
}
