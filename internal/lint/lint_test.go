package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// loadCorpus type-checks one testdata directory under a fake import path
// (the analyzers gate on import paths, so the corpus can impersonate a
// simulator package) and wraps it in a single-package Program.
func loadCorpus(t *testing.T, dir, fakePath string) *Program {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(filepath.Join(root, "internal", "lint", "testdata", dir), fakePath)
	if err != nil {
		t.Fatalf("loading corpus %s: %v", dir, err)
	}
	return &Program{Module: l.module, Root: root, Fset: l.fset, Pkgs: []*Package{p}}
}

// wantLines scans a corpus file for "want:<rule>" markers and returns the
// line numbers expected to carry at least one finding of that rule.
func wantLines(t *testing.T, file, rule string) map[int]bool {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[int]bool)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if strings.Contains(sc.Text(), "want:"+rule) {
			want[line] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatalf("corpus %s has no want:%s markers", file, rule)
	}
	return want
}

// TestAnalyzerCorpora proves every analyzer fires exactly on its corpus's
// marked lines: each want line yields at least one finding of the rule,
// no finding lands on an unmarked line, and the corpus suppressions are
// honored.
func TestAnalyzerCorpora(t *testing.T) {
	cases := []struct {
		dir        string
		fakePath   string
		analyzer   *Analyzer
		suppressed int
	}{
		{"nodeterminism", "simany/internal/core", NoDeterminism, 1},
		{"entropyflow", "simany/internal/core", Entropyflow, 1},
		{"maporder", "simany/internal/network", MapOrder, 0},
		{"homeshard", "simany/internal/hs", HomeShard, 0},
		{"rawvtime", "simany/internal/rvbad", RawVtime, 1},
		{"lockdiscipline", "simany/internal/rt", LockDiscipline, 1},
		{"snapshotsafe", "simany/internal/core", SnapshotSafe, 1},
		{"snapcover", "simany/internal/sc", SnapCover, 1},
		{"allowjustify", "simany/internal/aj", AllowJustify, 0},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			prog := loadCorpus(t, tc.dir, tc.fakePath)
			rep := Run(prog, []*Analyzer{tc.analyzer})
			diags := rep.Diagnostics()

			file := prog.Pkgs[0].Files[0]
			filename := prog.Fset.Position(file.Pos()).Filename
			want := wantLines(t, filename, tc.analyzer.Name)

			got := make(map[int]bool)
			for _, d := range diags {
				if d.Rule != tc.analyzer.Name {
					t.Errorf("unexpected rule %q in diagnostic %s", d.Rule, d)
					continue
				}
				if !want[d.Line] {
					t.Errorf("false positive: %s", d)
				}
				got[d.Line] = true
			}
			for line := range want {
				if !got[line] {
					t.Errorf("%s:%d: expected a %s finding, got none",
						filepath.Base(filename), line, tc.analyzer.Name)
				}
			}
			if rep.Suppressed() != tc.suppressed {
				t.Errorf("suppressed = %d, want %d", rep.Suppressed(), tc.suppressed)
			}
		})
	}
}

// TestRealTreeClean is the zero-false-positive guarantee: the full rule
// set over the repository's real packages must report nothing (intentional
// exceptions carry //lint:allow and count as suppressions, not findings).
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := l.Load("./internal/...", "./cmd/...")
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(prog, Analyzers())
	for _, d := range rep.Diagnostics() {
		t.Errorf("real tree: %s", d)
	}
	if len(prog.Pkgs) < 10 {
		t.Errorf("only %d packages loaded; pattern expansion looks broken", len(prog.Pkgs))
	}
}

// loadRealTree type-checks the repository's real packages.
func loadRealTree(t *testing.T) *Program {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := l.Load("./internal/...", "./cmd/...")
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRunDeterministic proves the parallel driver's output is independent
// of worker interleaving: two independent loads of the real tree, each run
// through the full rule set, must produce byte-identical diagnostics and
// suppression lists.
func TestRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source twice")
	}
	var diags [2][]Diagnostic
	var supps [2][]Suppression
	for i := range diags {
		rep := Run(loadRealTree(t), Analyzers())
		diags[i] = rep.Diagnostics()
		supps[i] = rep.Suppressions()
	}
	if !reflect.DeepEqual(diags[0], diags[1]) {
		t.Errorf("diagnostics differ across runs:\n%v\nvs\n%v", diags[0], diags[1])
	}
	if !reflect.DeepEqual(supps[0], supps[1]) {
		t.Errorf("suppressions differ across runs:\n%v\nvs\n%v", supps[0], supps[1])
	}
}

// copyCoreTo copies internal/core's non-test sources into dir, applying
// edit to each file's content, and returns the module root.
func copyCoreTo(t *testing.T, dir string, edit func(name, src string) string) string {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(root, "internal", "core")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		out := edit(name, string(data))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// loadSeededCore type-checks a doctored copy of internal/core under its
// real import path (so packages importing core resolve to the copy) plus
// any extra real packages, and returns the resulting Program.
func loadSeededCore(t *testing.T, coreDir, root string, extra ...string) *Program {
	t.Helper()
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	// The copy must load first: LoadDir caches it under the core import
	// path, so the extra packages' imports of core hit the doctored copy.
	pkgs := []*Package{}
	p, err := l.LoadDir(coreDir, "simany/internal/core")
	if err != nil {
		t.Fatalf("loading doctored core: %v", err)
	}
	pkgs = append(pkgs, p)
	for _, name := range extra {
		p, err := l.LoadDir(filepath.Join(root, "internal", name), "simany/internal/"+name)
		if err != nil {
			t.Fatalf("loading %s against doctored core: %v", name, err)
		}
		pkgs = append(pkgs, p)
	}
	return &Program{Module: l.module, Root: root, Fset: l.fset, Pkgs: pkgs}
}

// TestSeededSnapcoverBug is the end-to-end guarantee the rule exists for:
// deleting one field's encode line from the real checkpoint code makes
// snapcover name exactly that field.
func TestSeededSnapcoverBug(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks doctored module packages from source")
	}
	const encodeLine = "enc.Uvarint(r.taskSeq)"
	dir := t.TempDir()
	seeded := false
	root := copyCoreTo(t, dir, func(name, src string) string {
		if name != "snapshot.go" {
			return src
		}
		if !strings.Contains(src, encodeLine) {
			t.Fatalf("snapshot.go lost the %q encode line the test deletes", encodeLine)
		}
		seeded = true
		return strings.Replace(src, encodeLine, "", 1)
	})
	if !seeded {
		t.Fatal("snapshot.go was not copied")
	}
	// rt rides along because its task codec covers core fields (Task.Meta);
	// core alone would report those too and drown the seeded signal.
	prog := loadSeededCore(t, dir, root, "rt")
	rep := Run(prog, []*Analyzer{SnapCover})
	diags := rep.Diagnostics()
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want exactly 1 (the deleted field):\n%v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Msg, "runState.taskSeq") {
		t.Errorf("finding does not name the deleted field: %s", diags[0])
	}
}

// TestSeededEntropyBug injects a two-hop host-clock chain into a copy of
// internal/core and checks entropyflow reports the interprocedural hop
// with the full witness chain.
func TestSeededEntropyBug(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a doctored module package from source")
	}
	dir := t.TempDir()
	root := copyCoreTo(t, dir, func(name, src string) string { return src })
	injected := `package core

import "time"

func seededHop() int64 { return seededSource() }

func seededSource() int64 { return time.Now().UnixNano() }
`
	if err := os.WriteFile(filepath.Join(dir, "seeded_entropy.go"), []byte(injected), 0o644); err != nil {
		t.Fatal(err)
	}
	prog := loadSeededCore(t, dir, root)
	rep := Run(prog, []*Analyzer{Entropyflow})
	diags := rep.Diagnostics()
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want exactly 1 (the injected hop):\n%v", len(diags), diags)
	}
	d := diags[0]
	if !strings.Contains(d.Msg, "seededHop") ||
		!strings.Contains(d.Msg, "seededSource → time.Now") {
		t.Errorf("finding lacks the witness chain seededHop → seededSource → time.Now: %s", d)
	}
	if filepath.Base(d.File) != "seeded_entropy.go" {
		t.Errorf("finding at %s, want seeded_entropy.go", d.File)
	}
}

// TestSuppressionScope pins the //lint:allow contract: the directive
// covers its own line and the next, nothing further.
func TestSuppressionScope(t *testing.T) {
	prog := loadCorpus(t, "nodeterminism", "simany/internal/core")
	rep := NewReporter(prog.Fset)
	for _, f := range prog.Pkgs[0].Files {
		rep.CollectAllows(f)
	}
	file := prog.Fset.Position(prog.Pkgs[0].Files[0].Pos()).Filename

	// Find the directive's line in the corpus.
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	dirLine := 0
	for i, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, "//lint:allow nodeterminism") {
			dirLine = i + 1
			break
		}
	}
	if dirLine == 0 {
		t.Fatal("corpus lost its //lint:allow directive")
	}
	for line, covered := range map[int]bool{
		dirLine - 1: false,
		dirLine:     true,
		dirLine + 1: true,
		dirLine + 2: false,
	} {
		_, got := rep.allow[file][line]["nodeterminism"]
		if got != covered {
			t.Errorf("line %d (directive at %d): covered = %v, want %v",
				line, dirLine, got, covered)
		}
	}

	// A different rule on a covered line is still reported.
	pos := prog.Pkgs[0].Files[0].Pos()
	_ = pos
	if _, leaked := rep.allow[file][dirLine]["maporder"]; leaked {
		t.Error("suppression leaked to a rule the directive does not name")
	}
}

// TestDiagnosticString pins the compiler-style output format the CI step
// and editors rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "a/b.go", Line: 7, Col: 3, Rule: "maporder", Msg: "boom"}
	if got, want := d.String(), "a/b.go:7:3: maporder: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got := fmt.Sprint(d); got != d.String() {
		t.Errorf("fmt.Sprint = %q", got)
	}
}
