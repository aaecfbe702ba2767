package mpi

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"gompi/internal/core"
	"gompi/internal/dtype"
	"gompi/internal/pio"
	"gompi/internal/transport"
)

// TestErrorMappersAllocateNothingOnSuccess: every call checks its
// result through mapErr, most often with a nil error — every receive
// completion, every section a collective validates, every plan it
// builds — so the success path must not allocate. (The *PeerLostError
// target that errors.As fills escapes to the heap wherever it is
// declared.)
func TestErrorMappersAllocateNothingOnSuccess(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = mapErr(nil) }); n != 0 {
		t.Errorf("mapErr(nil) allocates %.0f objects, want 0", n)
	}
}

// TestErrorMappersAgreeOnFailures: an error reaches the caller bare
// (a point-to-point receive), wrapped by an engine call, or wrapped by a
// collective's schedule step; each must report one class whichever path
// it took — including an error no row names, and a datatype or file
// error raised inside a schedule.
func TestErrorMappersAgreeOnFailures(t *testing.T) {
	paths := []struct {
		name string
		wrap func(error) error
	}{
		{"bare", func(err error) error { return err }},
		{"engine", func(err error) error { return fmt.Errorf("core: eager send: %w", err) }},
		{"schedule", func(err error) error { return fmt.Errorf("step 2: %w", fmt.Errorf("recv: %w", err)) }},
	}
	for _, tc := range []struct {
		err  error
		want ErrClass
	}{
		{&transport.PeerLostError{Peer: 3}, ErrProcFailed},
		{core.ErrCommRevoked, ErrRevoked},
		{core.ErrWithdrawn, ErrIntern},
		{core.ErrContextsExhausted, ErrComm},
		{dtype.ErrBounds, ErrBuffer},
		{&pio.Error{Op: "write", Path: "f", Err: errors.New("disk full")}, ErrIO},
		{&pio.Error{Op: "open", Path: "f", Err: os.ErrPermission}, ErrAccess},
		{errors.New("something no row names"), ErrIntern},
	} {
		for _, p := range paths {
			err := p.wrap(tc.err)
			got := mapErr(err)
			if ClassOf(got) != tc.want {
				t.Errorf("%s: mapErr(%v) = %v, want %v", p.name, err, got, tc.want)
			}
			if got.Error() != tc.want.String()+": "+err.Error() {
				t.Errorf("%s: mapErr(%v) reads %q, want the class and the error's text", p.name, err, got)
			}
		}
	}
	// The typed rows come first: a lost peer's error that also wraps a
	// sentinel is still the peer's loss.
	if got := ClassOf(mapErr(&transport.PeerLostError{Peer: 1, Err: transport.ErrClosed})); got != ErrProcFailed {
		t.Errorf("a lost peer that wraps ErrClosed maps to %v, want %v", got, ErrProcFailed)
	}
}

// tableExempt names the exported sentinels of the layers below the
// binding that have no errTable row, each with the reason it never
// reaches mapErr.
var tableExempt = map[string]string{
	"shmipc.ErrUnsupported": "returned only while a job's devices are built, before any communicator exists",
}

// TestErrorTableCoversEverySentinel: every exported Err* variable and
// *Error type of the layers below the binding has a row in errors.go —
// named there, in errTable or in mapErr's typed rows — or a reason in
// tableExempt; and every errTable row, bare and wrapped with %w, maps to
// its class.
func TestErrorTableCoversEverySentinel(t *testing.T) {
	fset := token.NewFileSet()
	named := map[string]bool{}
	f, err := parser.ParseFile(fset, "errors.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok {
				named[pkg.Name+"."+sel.Sel.Name] = true
			}
		}
		return true
	})

	var errs []string
	for _, dir := range []string{"core", "coll", "dtype", "pio", "transport", "transport/shmipc", "dynproc"} {
		pkgs, err := parser.ParseDir(fset, filepath.Join("..", "internal", dir), func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					gd, ok := decl.(*ast.GenDecl)
					if !ok {
						continue
					}
					for _, spec := range gd.Specs {
						switch s := spec.(type) {
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.IsExported() && strings.HasPrefix(id.Name, "Err") {
									errs = append(errs, pkg.Name+"."+id.Name)
								}
							}
						case *ast.TypeSpec:
							if s.Name.IsExported() && strings.HasSuffix(s.Name.Name, "Error") {
								errs = append(errs, pkg.Name+"."+s.Name.Name)
							}
						}
					}
				}
			}
		}
	}
	if len(errs) < 10 {
		t.Fatalf("found only %v: the parse missed the packages' sentinels", errs)
	}
	sort.Strings(errs)
	for name := range tableExempt {
		if !slices.Contains(errs, name) {
			t.Errorf("tableExempt names %s, which no package exports", name)
		}
	}
	for _, name := range errs {
		_, exempt := tableExempt[name]
		switch {
		case named[name] && exempt:
			t.Errorf("%s has a row and an exemption; drop the exemption", name)
		case !named[name] && !exempt:
			t.Errorf("%s has no row in errors.go and no reason in tableExempt", name)
		}
	}

	for _, row := range errTable {
		for _, err := range []error{row.err, fmt.Errorf("step 0: %w", row.err)} {
			if got := ClassOf(mapErr(err)); got != row.class {
				t.Errorf("mapErr(%v) = %v, want %v", err, got, row.class)
			}
		}
	}
}
