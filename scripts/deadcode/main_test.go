package main

import (
	"reflect"
	"strings"
	"testing"
	"testing/fstest"
)

// fixture is a module with one library package, a command, a test
// file and a nested module: only x.go's functions are declarations.
var fixture = fstest.MapFS{
	"x/x.go": {Data: []byte(`package x

type P struct{}

func (p *P) Ptr() {}

type V struct{}

func (v V) Val() {}

type Slices[T any] struct{ free []T }

func (s *Slices[T]) Get() {}

func Dead() {
	_ = 1
}

func init() {}
`)},
	"x/x_test.go":   {Data: []byte("package x\n\nfunc helper() {}\n")},
	"cmd/c/main.go": {Data: []byte("package main\n\nfunc main() {}\n\nfunc unused() {}\n")},
	"sub/go.mod":    {Data: []byte("module repro/sub\n")},
	"sub/y.go":      {Data: []byte("package y\n\nfunc Nested() {}\n")},
}

// dump reaches the pointer and value receivers by name and the generic
// method only through its shape instantiations, one of them a nested
// bracketed type.
const dump = `# repro/cmd/c
_ -> main.main
main.main -> repro/x.(*P).Ptr
repro/x.(*P).Ptr -> repro/x.V.Val
main.main -> repro/x.(*Slices[go.shape.struct { repro/x.a [2]int }]).Get
repro/x.(*Slices[go.shape.int32]).Get -> repro/x.(*Slices[go.shape.int32]).Get.arginfo1
`

func TestCheck(t *testing.T) {
	decls, err := declarations(fixture, "repro")
	if err != nil {
		t.Fatal(err)
	}
	var syms []string
	for _, d := range decls {
		syms = append(syms, d.sym)
	}
	want := []string{"repro/x.(*P).Ptr", "repro/x.V.Val", "repro/x.(*Slices).Get", "repro/x.Dead"}
	if !reflect.DeepEqual(syms, want) {
		t.Fatalf("declarations = %v, want %v", syms, want)
	}
	if d := decls[3]; d.pos != "x/x.go:15" || d.lines != 3 {
		t.Fatalf("Dead at %s, %d lines; want x/x.go:15, 3 lines", d.pos, d.lines)
	}
	reached := map[string]bool{}
	if err := parseDump(strings.NewReader(dump), reached); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name                       string
		allow                      string
		unreached, stale, nonesuch []string
	}{
		{name: "allowed", allow: "repro/x.Dead  # fixture"},
		{name: "not allowed", unreached: []string{"repro/x.Dead"}},
		{name: "reached entry", allow: "repro/x.Dead  # fixture\nrepro/x.(*Slices).Get  # fixture",
			stale: []string{"repro/x.(*Slices).Get"}},
		{name: "entry names no function", allow: "repro/x.Dead  # fixture\nrepro/x.Gone  # fixture",
			nonesuch: []string{"repro/x.Gone"}},
	} {
		allow, err := parseAllow(strings.NewReader(c.allow))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res := check(decls, reached, allow)
		var unreached []string
		for _, d := range res.unreached {
			unreached = append(unreached, d.sym)
		}
		if !reflect.DeepEqual(unreached, c.unreached) || !reflect.DeepEqual(res.reachedAllowed, c.stale) ||
			!reflect.DeepEqual(res.missingAllowed, c.nonesuch) {
			t.Errorf("%s: unreached %v, reached entries %v, missing entries %v; want %v, %v, %v",
				c.name, unreached, res.reachedAllowed, res.missingAllowed, c.unreached, c.stale, c.nonesuch)
		}
		if err := report(new(strings.Builder), res); (err == nil) != (c.unreached == nil && c.stale == nil && c.nonesuch == nil) {
			t.Errorf("%s: report error %v", c.name, err)
		}
		if res.deadLines != 3 || res.totalLines != 6 {
			t.Errorf("%s: %d of %d lines unreached, want 3 of 6", c.name, res.deadLines, res.totalLines)
		}
	}
}

func TestParseAllowRejects(t *testing.T) {
	for _, bad := range []string{"repro/x.Dead", "repro/x.Dead  #", "a b  # two symbols", "a  # x\na  # twice"} {
		if _, err := parseAllow(strings.NewReader(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
