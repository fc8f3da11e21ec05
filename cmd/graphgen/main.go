// Command graphgen generates and inspects the synthetic inputs that
// stand in for the paper's Table III graphs and matrices. It builds
// each input through the experiment registry (exp), so what it
// describes is exactly what the simulator runs at that scale and seed.
//
// Usage:
//
//	graphgen -list
//	graphgen -input KRON -scale 20
//	graphgen -matrix SKEW -scale 16
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cobra/internal/exp"
	"cobra/internal/graph"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the CLI behind a testable seam: argv in, exit code out.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		input  = fs.String("input", "", "graph input to generate: KRON, TWIT, URND, ROAD")
		matrix = fs.String("matrix", "", "matrix input to generate: STEN, RAND, SKEW, BAND")
		scale  = fs.Int("scale", 18, "size (vertices/rows ~ 2^scale)")
		seed   = fs.Uint64("seed", 42, "generator seed")
		list   = fs.Bool("list", false, "describe the input suite, then exit")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *list {
		fmt.Fprint(stdout, suite)
		return 0
	}
	if *input == "" && *matrix == "" {
		fs.Usage()
		return 2
	}
	if *scale < exp.MinScale || *scale > exp.MaxScale {
		fmt.Fprintf(stderr, "graphgen: -scale %d out of range [%d, %d]\n", *scale, exp.MinScale, exp.MaxScale)
		return 2
	}

	if *input != "" {
		el, err := exp.CachedGraphInput(*input, *scale, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "graphgen:", err)
			return 1
		}
		ds := graph.Degrees(el)
		fmt.Fprintf(stdout, "%s scale=%d: %d vertices, %d edges\n", *input, *scale, ds.N, ds.M)
		fmt.Fprintf(stdout, "  mean degree   %.2f\n", ds.MeanDeg)
		fmt.Fprintf(stdout, "  max degree    %d\n", ds.MaxDeg)
		fmt.Fprintf(stdout, "  p99 degree    %.0f\n", ds.P99Deg)
		fmt.Fprintf(stdout, "  zero-deg frac %.3f\n", ds.ZeroDegFrac)
		fmt.Fprintf(stdout, "  top-1%% share  %.3f of edges\n", ds.Top1PctShare)
		return 0
	}
	m, err := exp.CachedMatrixInput(*matrix, *scale, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "graphgen:", err)
		return 1
	}
	if err := m.Validate(); err != nil {
		fmt.Fprintf(stderr, "graphgen: generated matrix invalid: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s scale=%d: %d x %d, %d nnz (%.2f per row)\n",
		*matrix, *scale, m.Rows, m.Cols, m.NNZ(), float64(m.NNZ())/float64(m.Rows))
	return 0
}

// suite is the -list description of the input suite.
const suite = `Graph inputs (stand-ins for the paper's Table III graphs):
  KRON  R-MAT power-law (a=.57,b=.19,c=.19), 16 edges/vertex — highly skewed
  TWIT  R-MAT power-law (a=.65), 12 edges/vertex — extreme skew
  URND  uniform random, 16 edges/vertex — no skew, no reuse
  ROAD  2D lattice + short-range shortcuts — bounded degree, high diameter
Matrix inputs:
  STEN  5-point stencil Laplacian (HPCG class)
  RAND  uniform random sparse, 8 nnz/row
  SKEW  power-law column distribution, 8 nnz/row
  BAND  banded random, 8 nnz/row
`
