package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestTableRenderAndCSV(t *testing.T) {
	tb := &Table{
		Name:   "demo",
		Title:  "demo table",
		Header: []string{"a", "b"},
	}
	tb.AddRow(1, 2.5)
	tb.AddRow("x", "y")
	var text bytes.Buffer
	if err := tb.Render(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "demo table") || !strings.Contains(text.String(), "2.5") {
		t.Errorf("render missing content:\n%s", text.String())
	}
	var csvBuf bytes.Buffer
	if err := tb.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 {
		t.Errorf("csv has %d lines, want 3", len(lines))
	}
}

func TestReportSaveCSVs(t *testing.T) {
	dir := t.TempDir()
	rep := &Report{Name: "unit"}
	tb := &Table{Name: "one", Title: "t", Header: []string{"v"}}
	tb.AddRow(42)
	rep.Tables = append(rep.Tables, tb)
	rep.Notef("note %d", 1)
	if err := rep.SaveCSVs(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "unit_one.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "42") {
		t.Errorf("csv content: %s", data)
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "note 1") {
		t.Error("notes not rendered")
	}
}

func TestAllRunnersRegistered(t *testing.T) {
	want := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "har", "tab1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "ablation"}
	runners := All()
	if len(runners) != len(want) {
		t.Fatalf("got %d runners, want %d", len(runners), len(want))
	}
	for i, id := range want {
		if runners[i].ID != id {
			t.Errorf("runner %d = %s, want %s", i, runners[i].ID, id)
		}
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%s) missing", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) should miss")
	}
}

// cell parses a table cell as float.
func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

func findTable(t *testing.T, rep *Report, name string) *Table {
	t.Helper()
	for _, tb := range rep.Tables {
		if tb.Name == name {
			return tb
		}
	}
	t.Fatalf("table %q missing from %s (have %v)", name, rep.Name, tableNames(rep))
	return nil
}

func tableNames(rep *Report) []string {
	var out []string
	for _, tb := range rep.Tables {
		out = append(out, tb.Name)
	}
	return out
}

func TestFig1Convergence(t *testing.T) {
	rep, err := Fig1Convergence(Small)
	if err != nil {
		t.Fatal(err)
	}
	particles := findTable(t, rep, "particles")
	if len(particles.Rows) < 50 {
		t.Errorf("only %d particles", len(particles.Rows))
	}
	// A meaningful share of particles must end on truly-valid
	// regions (paper: 84%).
	valid := 0
	for _, row := range particles.Rows {
		if row[5] == "true" {
			valid++
		}
	}
	if frac := float64(valid) / float64(len(particles.Rows)); frac < 0.3 {
		t.Errorf("true-valid particle fraction = %.2f, want >= 0.3", frac)
	}
	grid := findTable(t, rep, "grid")
	if len(grid.Rows) != 1600 {
		t.Errorf("grid rows = %d, want 1600", len(grid.Rows))
	}
}

func TestFig2Datasets(t *testing.T) {
	rep, err := Fig2Datasets(Small)
	if err != nil {
		t.Fatal(err)
	}
	tb := findTable(t, rep, "datasets")
	// 1+3+1+3 = 8 GT regions across the four settings.
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(tb.Rows))
	}
	// Every GT statistic exceeds its suggested yR.
	for i := range tb.Rows {
		stat := cell(t, tb, i, 6)
		yr := cell(t, tb, i, 7)
		if stat <= yr {
			t.Errorf("row %d: GT statistic %g <= yR %g", i, stat, yr)
		}
	}
}

func TestFig7Objectives(t *testing.T) {
	rep, err := Fig7Objectives(Small)
	if err != nil {
		t.Fatal(err)
	}
	summary := findTable(t, rep, "undefined_fraction")
	if len(summary.Rows) != 8 {
		t.Fatalf("summary rows = %d, want 8", len(summary.Rows))
	}
	for _, row := range summary.Rows {
		frac, _ := strconv.ParseFloat(row[2], 64)
		switch row[0] {
		case "eq4_log":
			if frac <= 0.1 {
				t.Errorf("log objective undefined frac = %g, want > 0.1", frac)
			}
		case "eq2_ratio":
			if frac != 0 {
				t.Errorf("ratio objective undefined frac = %g, want 0", frac)
			}
		}
	}
}

func TestFig8Sensitivity(t *testing.T) {
	rep, err := Fig8Sensitivity(Small)
	if err != nil {
		t.Fatal(err)
	}
	tb := findTable(t, rep, "viable")
	if len(tb.Rows) != 13 {
		t.Fatalf("rows = %d, want 13", len(tb.Rows))
	}
	// Viable share must decay over the size-regularized regime
	// (c >= 1), the paper's Fig. 8 shape.
	var atC1, atC2 float64
	for i := range tb.Rows {
		switch tb.Rows[i][0] {
		case "1":
			atC1 = cell(t, tb, i, 1)
		case "2":
			atC2 = cell(t, tb, i, 1)
		}
	}
	if atC2 >= atC1 {
		t.Errorf("viable frac did not decay over c in [1,2]: %g -> %g", atC1, atC2)
	}
}

func TestAblations(t *testing.T) {
	rep, err := Ablations(Small)
	if err != nil {
		t.Fatal(err)
	}
	// PSO recalls at most 1 region per run; GSO beats it on average.
	ps := findTable(t, rep, "pso")
	gsoRecall := cell(t, ps, 0, 1)
	psoRecall := cell(t, ps, 1, 1)
	if psoRecall > 1 {
		t.Errorf("PSO mean recall %g, cannot exceed 1", psoRecall)
	}
	if gsoRecall <= psoRecall {
		t.Errorf("GSO mean recall %g not above PSO %g", gsoRecall, psoRecall)
	}
	if gsoRecall < 1.5 {
		t.Errorf("GSO mean recall %g/3, want >= 1.5", gsoRecall)
	}
	// Grid index beats the memory scan at every N (rows come in
	// grid/scan pairs).
	idx := findTable(t, rep, "index")
	if len(idx.Rows)%2 != 0 {
		t.Fatalf("index rows = %d, want a multiple of 2", len(idx.Rows))
	}
	for i := 0; i < len(idx.Rows); i += 2 {
		gridRate := cell(t, idx, i, 3)
		scanRate := cell(t, idx, i+1, 3)
		if gridRate <= scanRate {
			t.Errorf("N=%s: grid %g evals/s not faster than scan %g", idx.Rows[i][0], gridRate, scanRate)
		}
	}
	// More bins should not hurt accuracy much: 256-bin RMSE <=
	// 8-bin RMSE.
	bins := findTable(t, rep, "bins")
	rmse8 := cell(t, bins, 0, 2)
	rmse256 := cell(t, bins, 2, 2)
	if rmse256 > rmse8*1.1 {
		t.Errorf("256-bin RMSE %g worse than 8-bin %g", rmse256, rmse8)
	}
	// KDE table has both arms.
	kde := findTable(t, rep, "kde")
	if len(kde.Rows) != 2 {
		t.Errorf("kde rows = %d, want 2", len(kde.Rows))
	}
	// Eq. 9 gradient gap falls as training size grows.
	grad := findTable(t, rep, "gradient")
	if len(grad.Rows) != 3 {
		t.Fatalf("gradient rows = %d, want 3", len(grad.Rows))
	}
	if cell(t, grad, len(grad.Rows)-1, 2) >= cell(t, grad, 0, 2) {
		t.Error("gradient gap did not fall with training size")
	}
}

func TestFig6TrainingShape(t *testing.T) {
	rep, err := Fig6Training(Small)
	if err != nil {
		t.Fatal(err)
	}
	tb := findTable(t, rep, "overhead")
	// Rows alternate (q, false), (q, true); tuned must be slower for
	// the same q.
	for i := 0; i+1 < len(tb.Rows); i += 2 {
		plain := cell(t, tb, i, 2)
		tuned := cell(t, tb, i+1, 2)
		if tuned <= plain {
			t.Errorf("queries=%s: tuned %gs not slower than plain %gs", tb.Rows[i][0], tuned, plain)
		}
	}
	// Training time grows with query count (last plain vs first
	// plain).
	if cell(t, tb, len(tb.Rows)-2, 2) <= cell(t, tb, 0, 2) {
		t.Error("plain training time did not grow with queries")
	}
}
