package bench

import (
	"strings"
	"testing"
)

// TestRegistryEntries: names are unique and non-empty, every entry has
// a one-line description and a run function, and each sidecar PR is
// owned by exactly one scenario.
func TestRegistryEntries(t *testing.T) {
	names := make(map[string]bool)
	owners := make(map[int]string)
	for _, s := range Scenarios {
		if s.Name == "" || strings.ContainsAny(s.Name, ", ") || names[s.Name] {
			t.Errorf("scenario name %q empty, not a single token, or duplicated", s.Name)
		}
		names[s.Name] = true
		if s.Desc == "" || strings.Contains(s.Desc, "\n") || s.Run == nil {
			t.Errorf("%s: want a one-line description and a run function", s.Name)
		}
		if s.Sidecar == nil {
			continue
		}
		if prev, ok := owners[s.Sidecar.PR]; ok {
			t.Errorf("%s owned by both %s and %s", s.Sidecar.File(), prev, s.Name)
		}
		owners[s.Sidecar.PR] = s.Name
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) != len(Scenarios) {
		t.Fatalf("all: %d scenarios, %v", len(all), err)
	}
	two, err := Select("wan,fig3")
	if err != nil || len(two) != 2 || two[0].Name != "wan" || two[1].Name != "fig3" {
		t.Fatalf("wan,fig3: %v, %v", two, err)
	}
	if _, err := Select("nope"); err == nil || !strings.Contains(err.Error(), "fig3") {
		t.Fatalf("unknown name: %v", err)
	}
}

// TestWriteText: floats at their column's precision, OmitZero zeros
// blank, strings left-aligned and everything else right-aligned.
func TestWriteText(t *testing.T) {
	tab := Table{
		Cols:  []Col{{Name: "name"}, {Name: "v", Prec: 2}, {Name: "n", OmitZero: true}, {Name: "burns", Prec: 1}},
		Rows:  [][]any{{"a", 1.23456, 0, []float64{0, 2.5}}, {"bb", 2.0, 7, []float64{}}},
		Notes: []string{"note"},
	}
	var b strings.Builder
	tab.WriteText(&b)
	want := "name     v  n    burns\na     1.23     0.0/2.5\nbb    2.00  7\nnote\n"
	if b.String() != want {
		t.Errorf("text:\n%q\nwant\n%q", b.String(), want)
	}
}
