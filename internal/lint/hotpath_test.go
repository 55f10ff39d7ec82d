// Package lint checks the hot path in the code the compiler emits. A
// function whose doc comment has the line `//lint:hotpath` is on the
// per-visit path, which runs millions of times per traversal, and its code
// may not call a map routine or time.Now. Neither allocates, so no
// allocation test counts them: a map that never escapes lives on the stack,
// yet building one per push made Ctx.Push 43 % slower (EXPERIMENTS.md "Lint
// audit"). The check reads the compiler's listing (go build -gcflags=-S), so
// a callee inlined into an annotated function counts as its code.
package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

const directive = "//lint:hotpath"

// canary pins the matcher; the go command is given it by name, since ./...
// skips testdata.
const canary = "repro/internal/lint/testdata/canary"

// forbidden reports whether a call target is a map routine or the clock.
func forbidden(callee string) bool {
	return strings.HasPrefix(callee, "runtime.map") ||
		strings.HasPrefix(callee, "runtime.makemap") ||
		strings.HasPrefix(callee, "internal/runtime/maps.") ||
		callee == "time.Now"
}

// funcKey maps a symbol to the function whose code it is: type arguments
// and receiver punctuation go, and a closure (f.func1, f.func1.2,
// f.gowrap1, f.deferwrap1) is its enclosing function's code.
func funcKey(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	key := b.String()
	for {
		i := strings.LastIndexByte(key, '.')
		elem := key[i+1:]
		for _, p := range []string{"func", "gowrap", "deferwrap"} {
			elem = strings.TrimPrefix(elem, p)
		}
		if i < 0 || elem == "" || strings.Trim(elem, "0123456789") != "" {
			return key
		}
		key = key[:i]
	}
}

// goCmd runs the go command at the module root, on the canary and the
// given packages, as a plain build whatever the -race or -tags of the test
// binary: the listing is the shipped code.
func goCmd(args ...string) *exec.Cmd {
	cmd := exec.Command("go", append(args, "./internal/lint/testdata/canary")...)
	cmd.Dir = filepath.Join("..", "..")
	cmd.Env = append(os.Environ(), "GOFLAGS=")
	return cmd
}

// annotated maps the key of every //lint:hotpath function that the plain
// build compiles, the canary's included, to its declaration.
var annotated = sync.OnceValues(func() (map[string]token.Position, error) {
	out, err := goCmd("list", "-f", "{{.ImportPath}}\t{{.Dir}}{{range .GoFiles}}\t{{.}}{{end}}", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	hot := make(map[string]token.Position)
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Split(line, "\t")
		for _, name := range fields[2:] {
			f, err := parser.ParseFile(fset, filepath.Join(fields[1], name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Doc == nil || !slices.ContainsFunc(fn.Doc.List, func(c *ast.Comment) bool {
					return strings.TrimSpace(c.Text) == directive
				}) {
					continue
				}
				sym := fields[0] + "." + fn.Name.Name
				if fn.Recv != nil {
					sym = fields[0] + ".(" + types.ExprString(fn.Recv.List[0].Type) + ")." + fn.Name.Name
				}
				hot[funcKey(sym)] = fset.Position(fn.Pos())
			}
		}
	}
	return hot, nil
})

// listing compiles the module's libraries and the canary with -S and maps
// every function with code in the listing to the forbidden calls in that
// code. The go command replays a cached package's listing. Every annotated
// function is under internal/, and no command or example compiles an
// instantiation of one that no internal/ package compiles: building them
// too would take three times as long to list the same code again.
var listing = sync.OnceValues(func() (map[string][]string, error) {
	cmd := goCmd("build", "-gcflags=repro/...=-S", "./internal/...")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	calls := make(map[string][]string)
	fn := ""           // the function whose code is being read
	var other []string // lines outside the listing: build errors
	sc := bufio.NewScanner(stderr)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if _, call, ok := strings.Cut(line, "\tCALL\t"); ok && fn != "" {
			if callee, _, _ := strings.Cut(call, "(SB)"); forbidden(callee) && !slices.Contains(calls[fn], callee) {
				calls[fn] = append(calls[fn], callee)
			}
		} else if !strings.HasPrefix(line, "\t") {
			fn = ""
			if sym, _, ok := strings.Cut(line, " STEXT "); ok {
				fn = funcKey(sym)
				if _, ok := calls[fn]; !ok {
					calls[fn] = nil
				}
			} else if !strings.Contains(line, " size=") && !strings.HasPrefix(line, "# ") {
				other = append(other, line)
			}
		}
	}
	io.Copy(io.Discard, stderr) // after a scan error, so that the build can exit
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-S: %v\n%s", err, strings.Join(other, "\n"))
	}
	for _, cs := range calls {
		slices.Sort(cs)
	}
	return calls, sc.Err()
})

// findings checks the annotated functions of the canary, or of the module,
// against the listing.
func findings(t *testing.T, inCanary bool) (found []string, hot int) {
	t.Helper()
	annotated, err := annotated()
	if err != nil {
		t.Fatal(err)
	}
	calls, err := listing()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range slices.Sorted(maps.Keys(annotated)) {
		if strings.HasPrefix(key, canary+".") != inCanary {
			continue
		}
		hot++
		if cs, ok := calls[key]; !ok {
			found = append(found, fmt.Sprintf("%s: %s has no code in the listing", annotated[key], key))
		} else if len(cs) > 0 {
			found = append(found, fmt.Sprintf("%s: %s calls %s", annotated[key], key, strings.Join(cs, ", ")))
		}
	}
	return found, hot
}

// TestHotPathCallsNoMapOrClock fails when the code of a //lint:hotpath
// function, callees inlined into it included, calls a map routine or
// time.Now, or when the listing has no code for one.
func TestHotPathCallsNoMapOrClock(t *testing.T) {
	found, hot := findings(t, false)
	if hot == 0 {
		t.Fatal("found no " + directive + " function")
	}
	for _, f := range found {
		t.Error(f)
	}
	t.Logf("%d %s functions checked", hot, directive)
}

// TestHotPathCanary pins the matcher against the toolchain: Hot's map and
// clock calls, the map calls of the helper inlined into HotInlined and
// Never's missing code are each found, and Cold, unannotated, is not
// reported though its code makes Hot's calls.
func TestHotPathCanary(t *testing.T) {
	found, _ := findings(t, true)
	want := []string{"Hot calls ", "HotInlined calls ", "Never has no code"}
	if len(found) != len(want) {
		t.Errorf("findings %q, want %q", found, want)
	}
	for i := range min(len(found), len(want)) {
		if !strings.Contains(found[i], canary+"."+want[i]) {
			t.Errorf("finding %q, want %q", found[i], want[i])
		}
	}
	calls, _ := listing() // findings failed the test on its error
	for fn, clock := range map[string]bool{"Hot": true, "HotInlined": false, "Cold": true} {
		// Sorted, a map routine comes before time.Now.
		if cs := calls[canary+"."+fn]; len(cs) == 0 || cs[0] == "time.Now" || slices.Contains(cs, "time.Now") != clock {
			t.Errorf("%s calls %q in the listing; want map calls, and time.Now %v", fn, cs, clock)
		}
	}
}

func TestFuncKey(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/core.(*Ctx[go.shape.uint32]).Push":                    "repro/internal/core.Ctx.Push",
		"repro/internal/core.(*Ctx[uint32]).Push":                             "repro/internal/core.Ctx.Push",
		"repro/internal/core.(*Ctx[V]).Push":                                  "repro/internal/core.Ctx.Push",
		"repro/internal/graph.DecodeAdjBlock[go.shape.uint64]":                "repro/internal/graph.DecodeAdjBlock",
		"repro/internal/core.(*Engine[go.shape.uint32]).run.func1":            "repro/internal/core.Engine.run",
		"repro/internal/core.hybridBFS[go.shape.uint32].func2.1":              "repro/internal/core.hybridBFS",
		"repro/internal/core.(*Engine[go.shape.uint32]).Wait.deferwrap1":      "repro/internal/core.Engine.Wait",
		"repro/internal/sem.(*Graph[go.shape.struct { a [4]uint8 }]).blockOf": "repro/internal/sem.Graph.blockOf",
	} {
		if got := funcKey(sym); got != want {
			t.Errorf("funcKey(%q) = %q, want %q", sym, got, want)
		}
	}
}
