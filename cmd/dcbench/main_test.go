package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"dcbench/internal/report"
)

// TestUsageTextMatchesRealDefaults pins the -help output to
// report.DefaultOptions(): the flag defaults are taken from it, so
// PrintDefaults must advertise exactly those values.
func TestUsageTextMatchesRealDefaults(t *testing.T) {
	opts := report.DefaultOptions()
	fs := flag.NewFlagSet("dcbench", flag.ContinueOnError)
	registerFlags(fs, &opts)
	var b strings.Builder
	fs.SetOutput(&b)
	fs.PrintDefaults()
	usage := b.String()

	d := report.DefaultOptions()
	for flagName, want := range map[string]string{
		"scale":  fmt.Sprintf("default %g", d.Scale),
		"seed":   fmt.Sprintf("default %d", d.Seed),
		"instrs": fmt.Sprintf("default %d", d.Instrs),
		"warmup": fmt.Sprintf("default %d", d.Warmup),
	} {
		if !strings.Contains(usage, want) {
			t.Errorf("-%s usage does not advertise %q:\n%s", flagName, want, usage)
		}
	}
}

// TestDocCommentMatchesRealDefaults pins the package doc comment's flag
// table to report.DefaultOptions(), so the documented defaults can never
// drift from the real ones again (this PR fixed -scale documented as 0.02
// while the code defaulted to 0.05).
func TestDocCommentMatchesRealDefaults(t *testing.T) {
	f, err := os.Open("main.go")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	d := report.DefaultOptions()
	want := map[string]string{
		"scale":  fmt.Sprintf("%g", d.Scale),
		"seed":   fmt.Sprintf("%d", d.Seed),
		"instrs": fmt.Sprintf("%d", d.Instrs),
		"warmup": fmt.Sprintf("%d", d.Warmup),
		"j":      fmt.Sprintf("%d", d.Jobs),
	}
	re := regexp.MustCompile(`(?m)^//\s+-(scale|seed|instrs|warmup|j)\s+\S+.*\(default ([0-9.]+)\)`)
	matches := re.FindAllStringSubmatch(string(src), -1)
	if len(matches) != len(want) {
		t.Fatalf("doc comment documents %d flag defaults, want %d", len(matches), len(want))
	}
	for _, m := range matches {
		if got := m[2]; got != want[m[1]] {
			t.Errorf("doc comment says -%s defaults to %s; report.DefaultOptions() says %s",
				m[1], got, want[m[1]])
		}
	}
}

// TestExtraArgumentsRejected: a subcommand given more (or fewer) words
// than it takes — most often flags placed after it — exits 2 with the
// usage message instead of running with those words ignored. Each case
// re-runs this test binary as dcbench with the case's arguments.
func TestExtraArgumentsRejected(t *testing.T) {
	if os.Getenv("DCBENCH_TEST_MAIN") == "1" {
		os.Args = append([]string{"dcbench"}, strings.Fields(os.Getenv("DCBENCH_TEST_ARGS"))...)
		main()
		os.Exit(0) // main accepted the arguments: the parent reports it
	}
	for _, args := range []string{
		"list -j 4", "export extra", "all -csv", "run Sort extra",
		"figure 3 4", "table 1 -csv", "figure", "run", "bogus", "",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestExtraArgumentsRejected$")
		cmd.Env = append(os.Environ(), "DCBENCH_TEST_MAIN=1", "DCBENCH_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("dcbench %s: err = %v, want exit status 2\n%s", args, err, out)
			continue
		}
		if !strings.Contains(string(out), "usage: dcbench") {
			t.Errorf("dcbench %s: no usage message:\n%s", args, out)
		}
	}
	for _, args := range [][]string{{"list"}, {"export"}, {"all"}, {"run", "Sort"}, {"figure", "3"}, {"table", "1"}} {
		if !validArgs(args) {
			t.Errorf("validArgs(%q) = false, want true", args)
		}
	}
}
