// Package analysis is the repo's custom static-analysis suite: machine checks
// for the safety invariants that previously lived only in comments and
// CHANGES.md prose. Each analyzer enforces one invariant:
//
//   - lockorder: the publisher's two locks in internal/pubsub, mu and pubMu,
//     are never held together, and every Lock call is paired with an Unlock
//     or defer Unlock.
//   - codecbound: hand-rolled binary decode paths in internal/wire,
//     internal/store and the statev2* files of internal/pubsub must go through
//     codec.Reader, and no allocation may be sized by a freshly-decoded
//     integer that was never clamped.
//   - cryptorand: the crypto packages must never import math/rand or seed
//     randomness from the clock; crypto/rand only.
//   - hotpath: functions marked //ppcd:hotpath (the fan-out frame-write loop,
//     ff128 field ops, the blocked-elimination inner loops) must not contain
//     known-allocating constructs.
//   - syncerr: internal/store must never discard the error of an
//     (*os.File).Sync or Close — fsync failures ARE the durability story.
//
// The types below deliberately mirror golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so the suite can be ported onto the real
// framework wholesale if the dependency ever becomes available; the toolchain
// here is stdlib-only, so loading is done with `go list -export` plus the gc
// export-data importer (see load.go) instead of go/packages.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named invariant check. Run inspects pass.Checked (the files
// that survived the analyzer's package/file gates) and reports findings
// through the pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is a one-paragraph description shown by `ppcd-lint -help`.
	Doc string
	// Packages gates the analyzer to packages whose import path contains one
	// of these substrings. Empty means every package. The driver applies the
	// gate; the test harness bypasses it so fixtures can live anywhere.
	Packages []string
	// FileGate, when non-nil, further restricts the checked files of a gated
	// package (e.g. codecbound only looks at pubsub's statev2* files).
	FileGate func(pkgPath, filename string) bool
	// Run performs the check.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked form to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// PkgPath is the import path under analysis (a fixture pseudo-path under
	// the test harness).
	PkgPath string
	Pkg     *types.Package
	Info    *types.Info
	// Files holds every parsed file of the package (complete type info).
	Files []*ast.File
	// Checked holds the files this analyzer actually inspects: Files after
	// the driver applied FileGate, or all of them under the test harness.
	Checked []*ast.File

	diags []Diagnostic
}

// Diagnostic is one finding, carrying a resolved source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings reported so far.
func (p *Pass) Diagnostics() []Diagnostic { return p.diags }

// All returns the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{LockOrder, CodecBound, CryptoRand, HotPath, SyncErr}
}

// Applies reports whether a is gated onto the package at path.
func (a *Analyzer) Applies(path string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, sub := range a.Packages {
		if strings.Contains(path, sub) {
			return true
		}
	}
	return false
}
