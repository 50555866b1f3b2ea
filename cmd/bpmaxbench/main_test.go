package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("run -list: %v", err)
	}
}

func TestRunOneExperiment(t *testing.T) {
	if err := run([]string{"-exp", "table6", "-scale", "small"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunCSV(t *testing.T) {
	if err := run([]string{"-exp", "fig11", "-csv"}); err != nil {
		t.Fatalf("run csv: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-exp", "bogus"}); err == nil {
		t.Error("expected error for unknown experiment")
	}
	if err := run([]string{"-exp", "fig11,bogus"}); err == nil {
		t.Error("expected error for unknown experiment in a list")
	}
	if err := run([]string{"-exp", " , "}); err == nil {
		t.Error("expected error for empty experiment list")
	}
	if err := run([]string{"-scale", "galactic"}); err == nil {
		t.Error("expected error for unknown scale")
	}
}

func TestRunExperimentList(t *testing.T) {
	if testing.Short() {
		t.Skip("runs timing experiments")
	}
	if err := run([]string{"-exp", "table6, fig11"}); err != nil {
		t.Fatalf("run comma-separated -exp: %v", err)
	}
}

func TestRunOutDir(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-exp", "fig11", "-out", dir}); err != nil {
		t.Fatalf("run -out: %v", err)
	}
	for _, name := range []string{"fig11.txt", "fig11.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
}
