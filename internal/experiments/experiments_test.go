package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func quick() Config { return Config{Quick: true, Seed: 1} }

func TestIDsComplete(t *testing.T) {
	ids := IDs()
	want := []string{"A1", "A2", "A3", "A4", "A5", "F1", "F2",
		"T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("T99", quick()); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestEveryExperimentRuns executes the full registry at quick scale and
// validates the tables are well formed (the per-claim assertions live in
// the per-package tests; this is the end-to-end harness check).
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tables, err := Run(id, quick())
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("table %s has no rows", tb.ID)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Columns) {
						t.Errorf("table %s row width %d != %d columns", tb.ID, len(row), len(tb.Columns))
					}
				}
				var buf bytes.Buffer
				if err := tb.Render(&buf); err != nil {
					t.Errorf("render %s: %v", tb.ID, err)
				}
				if err := tb.CSV(&buf); err != nil {
					t.Errorf("csv %s: %v", tb.ID, err)
				}
			}
		})
	}
}

func TestT1ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks skipped in -short mode")
	}
	tables, err := Run("T1", quick())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	// Column 3 is iters/log2(m); it must stay within a bounded band.
	for _, row := range tb.Rows {
		ratio := mustFloat(t, row[3])
		if ratio > 4 {
			t.Errorf("iters/log2(m) = %.3f too large: O(log n) shape broken", ratio)
		}
	}
	// Violations column must be zero everywhere.
	for _, row := range tb.Rows {
		if row[len(row)-1] != "0" {
			t.Errorf("space violations in T1 row: %v", row)
		}
	}
}

func TestT6SpeedupAboveOne(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks skipped in -short mode")
	}
	tables, err := Run("T6", quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if sp := mustFloat(t, row[6]); sp <= 1 {
			t.Errorf("CC speedup %.3f <= 1 in row %v", sp, row)
		}
	}
}

func TestT9AblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks skipped in -short mode")
	}
	tables, err := Run("T9", quick())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	sawRawOverflow := false
	for _, row := range tb.Rows {
		if strings.HasPrefix(row[3], "NO") {
			sawRawOverflow = true
		}
		if strings.HasPrefix(row[5], "NO") {
			t.Errorf("E* 2-hop ball exceeds budget: %v", row)
		}
	}
	if !sawRawOverflow {
		t.Error("ablation lost its point: raw 2-hop balls fit the budget on every workload")
	}
}

// TestT4AuditsChecked fails when a T4 stage row reads 0 in both of its
// worst-ratio columns, which is what a stage whose audits checked no node
// prints: a zero InvariantCheck reads as satisfied.
func TestT4AuditsChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks skipped in -short mode")
	}
	tables, err := Run("T4", quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		var worst []int
		for i, c := range tb.Columns {
			if strings.HasSuffix(c, " worst") {
				worst = append(worst, i)
			}
		}
		if len(worst) != 2 {
			t.Fatalf("table %s has worst-ratio columns %v, want two", tb.ID, worst)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("table %s has no stage rows", tb.ID)
		}
		for _, row := range tb.Rows {
			if mustFloat(t, row[worst[0]]) == 0 && mustFloat(t, row[worst[1]]) == 0 {
				t.Errorf("table %s stage %s: both worst ratios are 0, so its audits checked nothing: %v", tb.ID, row[0], row)
			}
		}
	}
}

func TestRunAllWritesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite skipped in -short mode")
	}
	var buf bytes.Buffer
	if err := RunAll(quick(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range IDs() {
		if !strings.Contains(out, id+" —") && !strings.Contains(out, id+"a —") {
			t.Errorf("output missing experiment %s", id)
		}
	}
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	var f float64
	if _, err := fmt.Sscan(s, &f); err != nil {
		t.Fatalf("not a float: %q", s)
	}
	return f
}
