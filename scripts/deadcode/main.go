// Command deadcode fails when a library function is reached by none of
// the repository's commands.
//
// Run it from the repository root:
//
//	go run ./scripts/deadcode
//
// It links every cmd/* command and bench/cmd/hidsbench with inlining off
// and the linker's -dumpdep, takes the union of the symbols the linker
// kept, and compares it with every function declared in a non-main,
// non-_test.go file of the module. A generic function or method counts
// as reached when any of its instantiations is. An unreached function
// must be listed in allow.txt (next to this file) as
//
//	symbol  # reason
//
// and an entry that is reached again, or names no function, fails too.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

const (
	module    = "repro"
	allowFile = "scripts/deadcode/allow.txt"
)

// A decl is one function declaration and its linker symbol.
type decl struct {
	sym   string // e.g. repro/internal/pool.(*Slices).Get
	pos   string // file:line
	lines int
}

// A target is one command to link: a package path and the directory of
// the module it belongs to.
type target struct{ dir, pkg string }

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(1)
	}
}

func run(out io.Writer) error {
	targets, err := commands()
	if err != nil {
		return err
	}
	reached := map[string]bool{}
	for _, t := range targets {
		dump, err := link(t)
		if err != nil {
			return err
		}
		if err := parseDump(bytes.NewReader(dump), reached); err != nil {
			return fmt.Errorf("%s: %w", t.pkg, err)
		}
	}
	decls, err := declarations(os.DirFS("."), module)
	if err != nil {
		return err
	}
	f, err := os.Open(allowFile)
	if err != nil {
		return err
	}
	defer f.Close()
	allow, err := parseAllow(f)
	if err != nil {
		return fmt.Errorf("%s: %w", allowFile, err)
	}
	return report(out, check(decls, reached, allow))
}

// commands lists cmd/* and bench/cmd/hidsbench.
func commands() ([]target, error) {
	dirs, err := filepath.Glob("cmd/*")
	if err != nil {
		return nil, err
	}
	var ts []target
	for _, d := range dirs {
		ts = append(ts, target{".", "./" + filepath.ToSlash(d)})
	}
	return append(ts, target{"bench", "./cmd/hidsbench"}), nil
}

// link builds t into the null device and returns the linker's
// dependency dump.
func link(t target) ([]byte, error) {
	cmd := exec.Command("go", "build", "-o", os.DevNull, "-gcflags=all=-l", "-ldflags=-dumpdep", t.pkg)
	cmd.Dir = t.dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build %s: %w\n%s", t.pkg, err, lastLines(out, 20))
	}
	return out, nil
}

func lastLines(b []byte, n int) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return bytes.Join(lines, []byte("\n"))
}

// parseDump adds to reached every module symbol named on either side of
// a "from -> to" line of a -dumpdep dump, with type arguments removed.
func parseDump(r io.Reader, reached map[string]bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		for _, s := range [2]string{from, to} {
			if strings.HasPrefix(s, module+"/") || strings.HasPrefix(s, module+".") {
				reached[stripTypeArgs(s)] = true
			}
		}
	}
	return sc.Err()
}

// stripTypeArgs removes every bracketed type-argument list, so
// pool.(*Slices[go.shape.int32]).Get becomes pool.(*Slices).Get.
func stripTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declarations parses every non-main package of the module rooted at
// fsys (nested modules, testdata and _test.go files excluded) and
// returns its functions, init functions left out.
func declarations(fsys fs.FS, mod string) ([]decl, error) {
	var decls []decl
	fset := token.NewFileSet()
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return fs.SkipDir
			}
			if p != "." {
				if _, err := fs.Stat(fsys, path.Join(p, "go.mod")); err == nil {
					return fs.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
		pkg := mod
		if dir := path.Dir(p); dir != "." {
			pkg += "/" + dir
		}
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok || (fn.Recv == nil && fn.Name.Name == "init") || fn.Name.Name == "_" {
				continue
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			decls = append(decls, decl{
				sym:   pkg + "." + recvPrefix(fn) + fn.Name.Name,
				pos:   fmt.Sprintf("%s:%d", p, start.Line),
				lines: end.Line - start.Line + 1,
			})
		}
		return nil
	})
	return decls, err
}

// recvPrefix is the receiver part of a method's linker symbol: "T." for
// a value receiver, "(*T)." for a pointer one, type parameters dropped.
func recvPrefix(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	star := false
	if s, ok := t.(*ast.StarExpr); ok {
		star, t = true, s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	name := t.(*ast.Ident).Name
	if star {
		return "(*" + name + ")."
	}
	return name + "."
}

// parseAllow reads "symbol  # reason" lines; blank lines and lines that
// start with # are skipped. Every entry needs a reason.
func parseAllow(r io.Reader) (map[string]string, error) {
	allow := map[string]string{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, "#")
		sym, reason = strings.TrimSpace(sym), strings.TrimSpace(reason)
		if sym == "" || reason == "" || strings.ContainsAny(sym, " \t") {
			return nil, fmt.Errorf("line %d: want \"symbol  # reason\", got %q", n, line)
		}
		if _, dup := allow[sym]; dup {
			return nil, fmt.Errorf("line %d: %s listed twice", n, sym)
		}
		allow[sym] = reason
	}
	return allow, sc.Err()
}

// A result is what check found.
type result struct {
	unreached      []decl   // unreached and not allowed
	reachedAllowed []string // allowlist entries that are reached
	missingAllowed []string // allowlist entries that name no function
	deadLines      int      // lines of every unreached function, allowed or not
	totalLines     int
}

func check(decls []decl, reached map[string]bool, allow map[string]string) result {
	var res result
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.sym] = true
		res.totalLines += d.lines
		if reached[d.sym] {
			if _, ok := allow[d.sym]; ok {
				res.reachedAllowed = append(res.reachedAllowed, d.sym)
			}
			continue
		}
		res.deadLines += d.lines
		if _, ok := allow[d.sym]; !ok {
			res.unreached = append(res.unreached, d)
		}
	}
	for sym := range allow {
		if !declared[sym] {
			res.missingAllowed = append(res.missingAllowed, sym)
		}
	}
	sort.Strings(res.reachedAllowed)
	sort.Strings(res.missingAllowed)
	return res
}

// report prints res and returns an error when anything fails.
func report(w io.Writer, res result) error {
	lines := 0
	for _, d := range res.unreached {
		fmt.Fprintf(w, "%s: %s unreached (%d lines)\n", d.pos, d.sym, d.lines)
		lines += d.lines
	}
	for _, s := range res.reachedAllowed {
		fmt.Fprintf(w, "%s: %s is reached; remove it from the allowlist\n", allowFile, s)
	}
	for _, s := range res.missingAllowed {
		fmt.Fprintf(w, "%s: %s names no function; remove it from the allowlist\n", allowFile, s)
	}
	fmt.Fprintf(w, "%d of %d function lines unreached by any command; %d lines in %d functions not on the allowlist\n",
		res.deadLines, res.totalLines, lines, len(res.unreached))
	if len(res.unreached)+len(res.reachedAllowed)+len(res.missingAllowed) > 0 {
		return errors.New("unreached functions or stale allowlist entries")
	}
	return nil
}
