package main

import (
	"flag"
	"os"
	"testing"
)

// TestMainSmall runs the example end to end on a tiny input; its own
// self-checks panic on a wrong result.
func TestMainSmall(t *testing.T) {
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"pagerank", "-scale", "10"}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	main()
}
