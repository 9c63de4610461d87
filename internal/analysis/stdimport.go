package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"unicode/utf8"
)

// stdImporter type-checks standard-library packages from GOROOT
// source. It reads only the files the build would compile: the
// non-test .go files of the package directory that build.Context
// accepts for the host GOOS/GOARCH with cgo disabled. With cgo off the
// pure-Go variants of packages such as net and os/user are selected,
// so importing never runs `go tool cgo` or any other subprocess. Files
// are parsed one at a time in directory order, which keeps the shared
// FileSet deterministic, and function bodies are not type-checked: an
// importer needs only the package's declarations, so blank empties the
// bodies before the parser sees them, and an import that no remaining
// declaration names is not loaded at all (see declImporter).
type stdImporter struct {
	fset  *token.FileSet
	ctxt  build.Context
	src   string // GOROOT/src
	sizes types.Sizes
	pkgs  map[string]*types.Package // nil while a package is being imported
	names map[string]string         // package names read for stubs
}

func newStdImporter(fset *token.FileSet) *stdImporter {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &stdImporter{
		fset:  fset,
		ctxt:  ctxt,
		src:   filepath.Join(ctxt.GOROOT, "src"),
		sizes: types.SizesFor("gc", ctxt.GOARCH),
		pkgs:  map[string]*types.Package{},
		names: map[string]string{},
	}
}

// Import implements types.Importer.
func (s *stdImporter) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

// resolve returns the path under which GOROOT/src holds the package
// that an import of path from srcDir names, and its directory. srcDir
// is the importing package's directory: only a package inside GOROOT
// may import from GOROOT/src/vendor, as with the go command.
func (s *stdImporter) resolve(path, srcDir string) (string, string) {
	if _, ok := s.pkgs[path]; !ok && strings.HasPrefix(srcDir, s.src+string(filepath.Separator)) {
		if _, ok := s.pkgs["vendor/"+path]; ok {
			path = "vendor/" + path
		} else if _, err := os.Stat(filepath.Join(s.src, filepath.FromSlash(path))); os.IsNotExist(err) {
			path = "vendor/" + path
		}
	}
	return path, filepath.Join(s.src, filepath.FromSlash(path))
}

// ImportFrom implements types.ImporterFrom. A memoized package is
// returned without touching the file system.
func (s *stdImporter) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	path, dir := s.resolve(path, srcDir)
	if pkg, ok := s.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return pkg, nil
	}
	names, srcs, err := s.files(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: import %s: %w", path, err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: import %s: no buildable Go files in %s", path, dir)
	}
	files := make([]*ast.File, 0, len(names))
	for i, name := range names {
		blank(srcs[i])
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), srcs[i], parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	imp, err := s.declImporter(files, dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: import %s: %w", path, err)
	}
	s.pkgs[path] = nil // in progress: a re-import is a cycle
	conf := types.Config{Importer: imp, IgnoreFuncBodies: true, Sizes: s.sizes}
	pkg, err := conf.Check(path, s.fset, files, nil)
	if err != nil {
		delete(s.pkgs, path)
		return nil, fmt.Errorf("analysis: typecheck %s: %w", path, err)
	}
	s.pkgs[path] = pkg
	return pkg, nil
}

// declImporter imports what the declarations of one blanked package
// need. With function bodies blanked and ignored, a declaration can
// reach another package only through a qualified identifier p.X or a
// dot import, so an import is real when it is a dot import or its
// local name qualifies an identifier somewhere in files. Every other
// import gets a stub: a complete package with the real name and an
// empty scope, made afresh for each check and never memoized, so a
// package that module code imports is still loaded in full. A
// reference the scan missed fails the check with "undefined: p.X"
// against the stub; it cannot change a type. The type checker skips
// its unused-import check under IgnoreFuncBodies, so a real import
// that turns out unused is no error either.
type declImporter struct {
	s    *stdImporter
	used map[string]bool // import paths, as written, to import for real
}

func (s *stdImporter) declImporter(files []*ast.File, dir string) (declImporter, error) {
	quals := map[string]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			ast.Inspect(d, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok {
						quals[x.Name] = true
					}
				}
				return true
			})
		}
	}
	used := map[string]bool{"unsafe": true}
	for _, f := range files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return declImporter{}, err
			}
			var name string
			switch {
			case used[path]:
				continue
			case spec.Name != nil:
				name = spec.Name.Name
			default:
				if name, err = s.name(s.resolve(path, dir)); err != nil {
					return declImporter{}, err
				}
			}
			used[path] = name == "." || quals[name]
		}
	}
	return declImporter{s, used}, nil
}

// Import implements types.Importer.
func (d declImporter) Import(path string) (*types.Package, error) {
	return d.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (d declImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if d.used[path] {
		return d.s.ImportFrom(path, srcDir, mode)
	}
	path, dir := d.s.resolve(path, srcDir)
	name, err := d.s.name(path, dir)
	if err != nil {
		return nil, err
	}
	pkg := types.NewPackage(path, name)
	pkg.MarkComplete()
	return pkg, nil
}

// name returns the name of the package that resolve placed at path
// and dir: a loaded package's own, or else the package clause of the
// first file the build selects. Every buildable file of a package has
// the same clause, so the directory is scanned in its stored order, not
// sorted, and stops at that file, of which only the header that
// build.Context.MatchFile reads (through the imports) is read.
func (s *stdImporter) name(path, dir string) (string, error) {
	if pkg := s.pkgs[path]; pkg != nil {
		return pkg.Name(), nil
	}
	if name, ok := s.names[path]; ok {
		return name, nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return "", fmt.Errorf("import %s: %w", path, err)
	}
	defer d.Close()
	var head bytes.Buffer
	ctxt := s.ctxt
	ctxt.OpenFile = func(path string) (io.ReadCloser, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		head.Reset()
		return struct {
			io.Reader
			io.Closer
		}{io.TeeReader(f, &head), f}, nil
	}
	for {
		entries, err := d.ReadDir(32)
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			ok, err := ctxt.MatchFile(dir, name)
			if err != nil {
				return "", err
			}
			if !ok {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, head.Bytes(), parser.PackageClauseOnly)
			if err != nil {
				return "", err
			}
			s.names[path] = f.Name.Name
			return f.Name.Name, nil
		}
		if err == io.EOF {
			return "", fmt.Errorf("import %s: no buildable Go files in %s", path, dir)
		}
		if err != nil {
			return "", fmt.Errorf("import %s: %w", path, err)
		}
	}
}

// files lists the Go files in dir that the build selects, in directory
// order, with their contents. build.Context.MatchFile reads a file's
// header through OpenFile, which reads the whole file once and keeps it
// for the parser.
func (s *stdImporter) files(dir string) ([]string, [][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var src []byte
	ctxt := s.ctxt
	ctxt.OpenFile = func(path string) (io.ReadCloser, error) {
		var err error
		src, err = os.ReadFile(path)
		return io.NopCloser(bytes.NewReader(src)), err
	}
	var names []string
	var srcs [][]byte
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := ctxt.MatchFile(dir, name)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			names = append(names, name)
			srcs = append(srcs, src)
		}
	}
	return names, srcs, nil
}

// blank overwrites, in place, what a type check with IgnoreFuncBodies
// never reads: the interior of every top-level function body, and the
// interior of every composite or function literal in a package-level
// var declaration holding no "..." (a [...]T{…} literal takes its
// length, and so its type, from its elements). Blanked bytes become
// spaces, newlines excepted, so the file keeps its length and line
// table and every position the parser records is unchanged. src need
// not be valid Go: a brace still open at its end is left as it is.
func blank(src []byte) {
	lx := lexer{src: src}
	for {
		kw, _ := lx.next() // the first token of a top-level declaration
		if kw == tEOF {
			return
		}
		var lits [][2]int // literal interiors of a var declaration
		ellipsis := false
		depth, prev := 0, kw
		for t, off := kw, 0; t != tSemi || depth > 0; prev = t {
			t, off = lx.next()
			switch t {
			case tEOF:
				return
			case tLparen, tLbrack:
				depth++
			case tRparen, tRbrack, tRbrace:
				depth--
			case tEllipsis:
				ellipsis = true
			case tLbrace:
				// A brace after struct or interface opens a type. At
				// depth 0 of a function declaration the first other
				// brace opens the body; in a var declaration every
				// other brace opens a literal.
				if prev == tStruct || prev == tInterface || kw == tFunc && depth > 0 || kw != tFunc && kw != tVar {
					depth++
					break
				}
				end := lx.closeBrace()
				if end < 0 {
					return
				}
				if kw == tFunc {
					spaces(src[off+1 : end])
				} else {
					lits = append(lits, [2]int{off + 1, end})
				}
				t = tRbrace
			}
		}
		if !ellipsis {
			for _, l := range lits {
				spaces(src[l[0]:l[1]])
			}
		}
	}
}

// spaces overwrites every byte of b but newlines with a space.
func spaces(b []byte) {
	for i, c := range b {
		if c != '\n' {
			b[i] = ' '
		}
	}
}

// tok is the class of a Go token as blank needs it.
type tok int

const (
	tEOF  tok = iota
	tSemi     // ";" or a newline that ends a statement
	tLparen
	tRparen
	tLbrack
	tRbrack
	tLbrace
	tRbrace
	tEllipsis
	tFunc
	tVar
	tStruct
	tInterface
	tOther
)

// lexer splits Go source into tokens, skipping comments and inserting
// semicolons at line ends as the Go scanner does. It tells apart only
// the tokens blank needs and never fails: bytes that start no Go token
// lex as tOther.
type lexer struct {
	src  []byte
	pos  int
	semi bool // a newline here ends a statement
}

// next returns the next token and the offset where it starts.
func (lx *lexer) next() (tok, int) {
	src := lx.src
	for lx.pos < len(src) {
		start, c := lx.pos, src[lx.pos]
		lx.pos++
		if c == ' ' || c == '\t' || c == '\r' {
			continue
		}
		semi := lx.semi
		lx.semi = false
		switch {
		case c == '\n':
			if semi {
				return tSemi, start
			}
		case c == '/' && lx.peek(0) == '/':
			lx.pos = lx.index(start, "\n")
			lx.semi = semi
		case c == '/' && lx.peek(0) == '*':
			end := lx.index(start+2, "*/")
			lx.pos = min(end+2, len(src))
			// A comment spanning lines acts as a newline.
			if semi && bytes.IndexByte(src[start:end], '\n') >= 0 {
				return tSemi, start
			}
			lx.semi = semi
		case isLetter(c):
			for lx.pos < len(src) && (isLetter(src[lx.pos]) || isDigit(src[lx.pos])) {
				lx.pos++
			}
			return lx.word(src[start:lx.pos]), start
		case isDigit(c) || c == '.' && isDigit(lx.peek(0)):
			lx.number(start)
			lx.semi = true
			return tOther, start
		case c == '"' || c == '\'':
			lx.quoted(c)
			lx.semi = true
			return tOther, start
		case c == '`':
			lx.pos = min(lx.index(lx.pos, "`")+1, len(src))
			lx.semi = true
			return tOther, start
		case c == '.' && lx.peek(0) == '.' && lx.peek(1) == '.':
			lx.pos += 2
			return tEllipsis, start
		case (c == '+' || c == '-') && lx.peek(0) == c:
			lx.pos++
			lx.semi = true
			return tOther, start
		case c == ';':
			return tSemi, start
		case c == '(':
			return tLparen, start
		case c == '[':
			return tLbrack, start
		case c == '{':
			return tLbrace, start
		case c == ')':
			lx.semi = true
			return tRparen, start
		case c == ']':
			lx.semi = true
			return tRbrack, start
		case c == '}':
			lx.semi = true
			return tRbrace, start
		default:
			return tOther, start
		}
	}
	return tEOF, len(src)
}

// closeBrace consumes tokens through the brace that closes the one
// just returned by next and returns its offset, or -1 at the end of
// the source.
func (lx *lexer) closeBrace() int {
	for depth := 1; ; {
		t, off := lx.next()
		switch t {
		case tEOF:
			return -1
		case tLbrace:
			depth++
		case tRbrace:
			if depth--; depth == 0 {
				return off
			}
		}
	}
}

// peek returns the byte i places after the current one, or 0.
func (lx *lexer) peek(i int) byte {
	if lx.pos+i < len(lx.src) {
		return lx.src[lx.pos+i]
	}
	return 0
}

// index returns the offset of the first sep at or after from, or the
// length of the source.
func (lx *lexer) index(from int, sep string) int {
	if i := bytes.Index(lx.src[from:], []byte(sep)); i >= 0 {
		return from + i
	}
	return len(lx.src)
}

// word classifies an identifier or keyword and sets the semicolon
// state after it.
func (lx *lexer) word(w []byte) tok {
	switch string(w) {
	case "func":
		return tFunc
	case "var":
		return tVar
	case "struct":
		return tStruct
	case "interface":
		return tInterface
	case "case", "chan", "const", "default", "defer", "else", "for", "go",
		"goto", "if", "import", "map", "package", "range", "select", "switch", "type":
		return tOther
	}
	// Identifiers and break, continue, fallthrough and return.
	lx.semi = true
	return tOther
}

// number consumes the rest of a number literal starting at start,
// exponent signs included.
func (lx *lexer) number(start int) {
	src := lx.src
	hex := src[start] == '0' && (lx.peek(0) == 'x' || lx.peek(0) == 'X')
	for lx.pos < len(src) {
		c := src[lx.pos]
		switch {
		case isLetter(c) || isDigit(c) || c == '.':
		case c == '+' || c == '-':
			e := src[lx.pos-1] | 0x20 // lower case
			if !(e == 'p' || !hex && e == 'e') {
				return
			}
		default:
			return
		}
		lx.pos++
	}
}

// quoted consumes the rest of an interpreted string or rune literal
// opened by q. Like the Go scanner it stops at a newline.
func (lx *lexer) quoted(q byte) {
	src := lx.src
	for lx.pos < len(src) && src[lx.pos] != '\n' {
		c := src[lx.pos]
		lx.pos++
		if c == q {
			return
		}
		if c == '\\' && lx.pos < len(src) && src[lx.pos] != '\n' {
			lx.pos++
		}
	}
}

// isLetter reports whether c can start an identifier. Every byte of a
// multi-byte UTF-8 sequence counts as a letter: the Go scanner accepts
// non-ASCII letters in identifiers and rejects every other non-ASCII
// character outside literals and comments.
func isLetter(c byte) bool {
	return 'a' <= c|0x20 && c|0x20 <= 'z' || c == '_' || c >= utf8.RuneSelf
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
