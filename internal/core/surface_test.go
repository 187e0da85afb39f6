package core_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/distrib"
	"github.com/dsrhaslab/prisma-go/internal/ipc"
)

// nonTestGo calls visit with every non-test Go file under root (the
// benchmark module and dot-directories skipped): its slash-separated path
// relative to root and its source.
func nonTestGo(t *testing.T, root string, visit func(rel string, src []byte)) {
	t.Helper()
	goFiles(t, root, false, visit)
}

// goFiles is nonTestGo with test files as well when tests is set.
func goFiles(t *testing.T, root string, tests bool, visit func(rel string, src []byte)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "bench" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || (!tests && strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		visit(rel, src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// methodsMatching lists v's exported methods whose names match re.
func methodsMatching(v any, pattern string) []string {
	var out []string
	re := regexp.MustCompile(pattern)
	typ := reflect.TypeOf(v)
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; re.MatchString(name) {
			out = append(out, name)
		}
	}
	return out
}

// TestReadSurface keeps the read pairs and the second composition from
// growing back (DESIGN.md §20, §26): the stage and the fabric each have one
// read, both are core.Readers, the socket server has no read hook to
// install, non-test core contains no type assertion at all (it discovers
// nothing about its collaborators that way), and the deleted variants'
// names — the read pairs, the stage's optimization-object chain, runtime
// buffer resharding, the second plan store (the plan FIFO, its submitting
// state, the test-only plan API) — are gone from non-test Go. Who is asking and how the
// read is traced belong in core.ReadRequest; a new layer in front of the
// stage implements core.Reader and joins the conformance table, and a new
// storage optimization is a chain.Layers row.
func TestReadSurface(t *testing.T) {
	var _ core.Reader = (*core.Stage)(nil)
	var _ core.Reader = (*distrib.Fabric)(nil)
	for name, v := range map[string]any{"core.Stage": &core.Stage{}, "distrib.Fabric": &distrib.Fabric{}} {
		if got := methodsMatching(v, `^Read`); len(got) != 1 || got[0] != "Read" {
			t.Errorf("%s exports read methods %v, want exactly Read", name, got)
		}
	}
	if got := methodsMatching(&ipc.Server{}, `^Set.*Read`); len(got) != 0 {
		t.Errorf("ipc.Server has read hooks %v: what serves reads is the core.Reader it is built over", got)
	}

	deleted := regexp.MustCompile(`ReadCtx|ReadTenant|ReadPlanned|ServePeerCtx|TakeCtx|TakeOpts|PutTimed|readData|OptimizationObject|PrefetchObject|SetShards|SetBufferShards|reshard` +
		`|PlanQueueCapacity|planEntry|EpochSubmitting|GetRunOr|GetOr\(|hasEntry|Queue\[T\]\) (Wake|DropWhere)\b` +
		`|planManager\) (begin|activate|abort|abandon)\b|Prefetcher\) (SubmitPlan|Planned)\b`)
	fset := token.NewFileSet()
	nonTestGo(t, "../..", func(rel string, src []byte) {
		if m := deleted.Find(src); m != nil {
			t.Errorf("%s still mentions %s", rel, m)
		}
		if filepath.ToSlash(filepath.Dir(rel)) != "internal/core" {
			return
		}
		f, err := parser.ParseFile(fset, rel, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if a, ok := n.(*ast.TypeAssertExpr); ok {
				t.Errorf("%s: type assertion: make what it discovers part of the contract (or the request) instead of an optional extension", fset.Position(a.Pos()))
			}
			return true
		})
	})
}

// TestStageBuiltWhole keeps the stage one object built by one constructor
// (DESIGN.md §9): NewStage takes the wiring in its StageConfig, so the
// stage's only setters are the runtime controls and SetTenantGate — the
// tenancy manager is built over the stage (its load probe reads Stats, its
// SLO hook records into the controller that actuates the stage) — and no
// Go file outside internal/core, tests included, names the prefetcher the
// stage absorbed or a setter that once wired a stage after construction.
func TestStageBuiltWhole(t *testing.T) {
	allowed := map[string]bool{"SetProducers": true, "SetBufferCapacity": true, "SetTakeDeadline": true, "SetTraceSampling": true, "SetTenantGate": true}
	for _, name := range methodsMatching(&core.Stage{}, `^Set`) {
		if !allowed[name] {
			t.Errorf("core.Stage.%s: wiring belongs in core.StageConfig, runtime knobs in the control table", name)
		}
	}
	gone := regexp.MustCompile(`\b(NewPrefetcher|Prefetcher|PrefetcherConfig|DefaultPrefetcherConfig|SetChainStats|SetEpochPlanHook|SetPlanPartitioner|InstallPartitioner|DisablePartitioner)\b`)
	goFiles(t, "../..", true, func(rel string, src []byte) {
		if filepath.ToSlash(filepath.Dir(rel)) == "internal/core" {
			return
		}
		if m := gone.Find(src); m != nil {
			t.Errorf("%s still mentions %s", rel, m)
		}
	})
}
