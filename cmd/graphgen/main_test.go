package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutputsMatchRecorded pins -list and the description of every
// input at scale 10 byte-for-byte against testdata/, which holds the
// output of the generators graphgen carried before it read its inputs
// from exp's registry.
func TestOutputsMatchRecorded(t *testing.T) {
	cases := map[string][]string{"list": {"-list"}}
	for _, in := range []string{"KRON", "TWIT", "URND", "ROAD"} {
		cases[in] = []string{"-input", in, "-scale", "10"}
	}
	for _, in := range []string{"STEN", "RAND", "SKEW", "BAND"} {
		cases[in] = []string{"-matrix", in, "-scale", "10"}
	}
	for name, argv := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(argv, &stdout, &stderr); code != 0 {
				t.Fatalf("graphgen %v: exit %d, stderr %q", argv, code, stderr.String())
			}
			if got := stdout.String(); got != string(want) {
				t.Fatalf("graphgen %v:\n got %q\nwant %q", argv, got, want)
			}
		})
	}
}

// TestRejectsBadArguments: an out-of-range scale exits 2 with one line
// on stderr before any generator runs (the generators panic on these),
// and an unknown input exits 1.
func TestRejectsBadArguments(t *testing.T) {
	for _, tc := range []struct {
		argv []string
		code int
	}{
		{[]string{"-input", "KRON", "-scale", "31"}, 2},
		{[]string{"-input", "URND", "-scale", "-1"}, 2},
		{[]string{"-matrix", "STEN", "-scale", "-3"}, 2},
		{[]string{"-input", "FOO", "-scale", "10"}, 1},
		{[]string{"-matrix", "FOO", "-scale", "10"}, 1},
		{nil, 2},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.argv, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("graphgen %v: exit %d, want %d (stderr %q)", tc.argv, code, tc.code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("graphgen %v: stdout %q, want none", tc.argv, stdout.String())
		}
		if tc.argv != nil && strings.Count(strings.TrimSuffix(stderr.String(), "\n"), "\n") != 0 {
			t.Errorf("graphgen %v: stderr %q, want one line", tc.argv, stderr.String())
		}
	}
}
