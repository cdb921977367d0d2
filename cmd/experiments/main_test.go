package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const smokeSpec = `{
  "name": "smoke",
  "policy": "RR",
  "run": "isolation",
  "workloads": [
    {"core": 0, "workload": "matrix", "ops": 300}
  ],
  "seeds": {"list": [3, 4, 5]}
}`

func writeSpec(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunScenarioFile(t *testing.T) {
	path := writeSpec(t, smokeSpec)
	var out, errb strings.Builder
	if err := run([]string{"-scenario", path, "-parallel", "1", "-progress"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"EXP-SCN", "scenario smoke", "isolation run", "mean task cycles"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if !strings.Contains(errb.String(), "campaign: 3/3 runs") {
		t.Errorf("progress not reported: %q", errb.String())
	}
	// All three seeds appear as rows.
	for _, seed := range []string{"3", "4", "5"} {
		if !strings.Contains(got, "\n  "+seed+" ") {
			t.Errorf("seed %s row missing:\n%s", seed, got)
		}
	}
}

func TestRunScenarioFileCSV(t *testing.T) {
	path := writeSpec(t, smokeSpec)
	var out, errb strings.Builder
	if err := run([]string{"-scenario", path, "-parallel", "1", "-csv"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "seed,task cycles") {
		t.Errorf("CSV header missing:\n%s", out.String())
	}
}

func TestRunTable1(t *testing.T) {
	// table1 is the one experiment with no campaign behind it, so it keeps
	// the dispatch path fast to test.
	var out, errb strings.Builder
	if err := run([]string{"-exp", "table1"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "EXP-T1") {
		t.Errorf("table1 output missing:\n%s", out.String())
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole experiment suite twice")
	}
	// Every row of the suite is seeded, so the worker count must not change
	// a byte of the output.
	suite := func(parallel string) string {
		var out, errb strings.Builder
		if err := run([]string{"-exp", "all", "-runs", "2", "-csv", "-parallel", parallel}, &out, &errb); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	serial, parallel := suite("1"), suite("4")
	if serial != parallel {
		t.Errorf("-parallel 1 and -parallel 4 outputs differ:\n--- 1\n%s\n--- 4\n%s", serial, parallel)
	}
}

func TestScenarioFlagConflicts(t *testing.T) {
	path := writeSpec(t, smokeSpec)
	var out, errb strings.Builder
	err := run([]string{"-scenario", path, "-runs", "1000", "-exp", "fig1"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "conflicts with -exp, -runs") {
		t.Fatalf("conflicting flags accepted: %v", err)
	}
	// -csv/-parallel/-progress/-fast stay applicable.
	if err := run([]string{"-scenario", path, "-parallel", "2", "-fast=false", "-csv"}, &out, &errb); err != nil {
		t.Fatalf("override flags rejected: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown experiment", []string{"-exp", "nope"}, "unknown experiment"},
		{"positional args", []string{"extra"}, "unexpected arguments"},
		{"missing scenario", []string{"-scenario", "no/such.json"}, "no/such.json"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb strings.Builder
			err := run(c.args, &out, &errb)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error", c.args)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}
