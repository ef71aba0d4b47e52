package analysis

import (
	"go/ast"
	"strconv"
	"strings"
)

// CryptoRand enforces randomness hygiene in the packages that handle key
// material or produce values whose unpredictability the scheme's security
// rests on (OCBE blinding factors and exponents, Pedersen randomizers,
// AEAD nonces, ACV kernel coefficients): math/rand — seeded or not — is
// forbidden there, as is deriving any seed from the clock. crypto/rand is
// the only acceptable entropy source; a predictable OCBE exponent y lets
// anyone holding the envelope recompute σ and open it, and a predictable
// kernel coefficient collapses the ACV hiding argument.
var CryptoRand = &Analyzer{
	Name: "cryptorand",
	Doc: "forbid math/rand and time-seeded randomness in the crypto " +
		"packages; require crypto/rand",
	Packages: []string{
		"internal/ocbe", "internal/pedersen",
		"internal/sym", "internal/sig", "internal/idtoken",
		"internal/g2", "internal/ff128", "internal/ff64", "internal/core",
		"internal/polyring",
	},
	Run: runCryptoRand,
}

func runCryptoRand(pass *Pass) error {
	for _, f := range pass.Checked {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(spec.Pos(),
					"crypto package imports %s; key material and nonces must come from crypto/rand", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// Time-seeded randomness: Seed/NewSource/NewPCG/NewChaCha8 fed
			// (directly or through arithmetic) from time.Now.
			f := calleeFunc(pass.Info, call)
			if f == nil {
				return true
			}
			switch f.Name() {
			case "Seed", "NewSource", "NewPCG", "NewChaCha8":
				if callsTimeNow(pass, call) {
					pass.Reportf(call.Pos(),
						"time-seeded randomness (%s fed from time.Now) in a crypto package; use crypto/rand", f.Name())
				}
			}
			return true
		})
	}
	return nil
}

// callsTimeNow reports whether any argument subtree of call invokes
// time.Now.
func callsTimeNow(pass *Pass, call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CallExpr); ok {
				if f := calleeFunc(pass.Info, inner); f != nil && f.Pkg() != nil &&
					f.Pkg().Path() == "time" && strings.HasPrefix(f.Name(), "Now") {
					found = true
				}
			}
			return !found
		})
		if found {
			break
		}
	}
	return found
}
