// Command ppcd-lint runs the repo's custom static-analysis suite
// (internal/analysis) over the given package patterns — the machine-checked
// form of the invariants that keep the system sound: the publisher's two
// locks never held together, the bounded-decode discipline, crypto-randomness
// hygiene, the //ppcd:hotpath allocation rules, and store fsync error handling.
//
// Usage:
//
//	go run ./cmd/ppcd-lint ./...          # whole repo (what CI runs)
//	go run ./cmd/ppcd-lint ./internal/store
//	go run ./cmd/ppcd-lint -only lockorder ./internal/pubsub
//
// Exits 1 when any analyzer reports a finding, 2 on loading failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"ppcd/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ppcd-lint [-only names] [-list] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	suite := analysis.All()
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range suite {
			byName[a.Name] = a
		}
		suite = suite[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "ppcd-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			suite = append(suite, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppcd-lint:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.LoadPatterns(cwd, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppcd-lint:", err)
		os.Exit(2)
	}

	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		for _, a := range suite {
			if !a.Applies(pkg.ImportPath) {
				continue
			}
			pass := pkg.NewPass(a, true)
			if len(pass.Checked) == 0 {
				continue
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "ppcd-lint: %s on %s: %v\n", a.Name, pkg.ImportPath, err)
				os.Exit(2)
			}
			diags = append(diags, pass.Diagnostics()...)
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ppcd-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
