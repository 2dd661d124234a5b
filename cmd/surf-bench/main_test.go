package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func TestRunValidation(t *testing.T) {
	if err := runContext(context.Background(), "fig2", "bogus", ""); err == nil {
		t.Error("expected error for unknown scale")
	}
	if err := runContext(context.Background(), "nope", "small", ""); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	dir := t.TempDir()
	// fig2 is the cheapest experiment with real output.
	if err := runContext(context.Background(), "fig2", "small", dir); err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(dir, "fig2_datasets.csv")
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("CSV output is empty")
	}
}

func TestRunCommaSeparatedList(t *testing.T) {
	if err := runContext(context.Background(), "fig2,fig7", "small", ""); err != nil {
		t.Fatal(err)
	}
}
