// Command ethlint runs ETH's project-specific static-analysis suite over
// the module and exits non-zero on findings: vet catches generic Go
// mistakes, ethlint catches the harness-specific ones (severed error
// chains, fire-and-forget goroutines, float equality in the numeric hot
// paths, bare sentinels, pooled-buffer leaks, loops deaf to
// cancellation).
//
// Usage:
//
//	ethlint [-list] [-only analyzer[,analyzer]] [-json|-sarif] [packages]
//
// -json and -sarif switch the report format on stdout (the one-line text
// summary moves to stderr); the exit status is unchanged. The
// suppression budget and the stale-directive check live in the
// internal/lint test TestSelfClean, so `go test ./...` enforces them.
//
// The package arguments are accepted for interface familiarity
// (`ethlint ./...`), but the whole module is always loaded; arguments
// other than ./... restrict which packages' findings are shown.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/ascr-ecx/eth/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "write findings as JSON to stdout")
	sarifOut := flag.Bool("sarif", false, "write findings as SARIF 2.1.0 to stdout")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "ethlint: -json and -sarif are mutually exclusive")
		os.Exit(2)
	}

	analyzers := lint.All()
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "ethlint: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ethlint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ethlint: %v\n", err)
		os.Exit(2)
	}
	pkgs = filterPackages(pkgs, flag.Args(), root)

	res := lint.Run(pkgs, analyzers)

	summary := io.Writer(os.Stdout)
	switch {
	case *jsonOut:
		summary = os.Stderr
		if err := lint.WriteJSON(os.Stdout, res, root); err != nil {
			fmt.Fprintf(os.Stderr, "ethlint: %v\n", err)
			os.Exit(2)
		}
	case *sarifOut:
		summary = os.Stderr
		if err := lint.WriteSARIF(os.Stdout, res, analyzers, root); err != nil {
			fmt.Fprintf(os.Stderr, "ethlint: %v\n", err)
			os.Exit(2)
		}
	default:
		for _, d := range res.Diagnostics {
			fmt.Println(relPos(d, root))
		}
	}

	fmt.Fprintf(summary, "ethlint: %d packages, %d analyzers, %d findings, %d suppressed, %d ignore directives\n",
		len(pkgs), len(analyzers), len(res.Diagnostics), res.Suppressed, res.Ignores)
	if len(res.Diagnostics) > 0 {
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// filterPackages narrows findings to the requested package directories.
// "./..." (or no arguments) selects everything.
func filterPackages(pkgs []*lint.Package, args []string, root string) []*lint.Package {
	if len(args) == 0 {
		return pkgs
	}
	var keep []*lint.Package
	for _, pkg := range pkgs {
		for _, arg := range args {
			if arg == "./..." || arg == "all" {
				return pkgs
			}
			rec := strings.HasSuffix(arg, "/...")
			arg = strings.TrimSuffix(arg, "/...")
			abs, err := filepath.Abs(arg)
			if err != nil {
				continue
			}
			if pkg.Dir == abs || (rec && strings.HasPrefix(pkg.Dir+string(filepath.Separator), abs+string(filepath.Separator))) {
				keep = append(keep, pkg)
				break
			}
		}
	}
	return keep
}

// relPos renders a diagnostic with a root-relative path.
func relPos(d lint.Diagnostic, root string) string {
	s := d.String()
	if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		s = fmt.Sprintf("%s:%d:%d: [%s] %s", rel, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	return s
}
