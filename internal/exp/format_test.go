package exp

import (
	"strings"
	"testing"
)

// TestResultFormatting smoke-tests every result formatter on cheap
// inputs: each must produce a non-empty, titled table.
func TestResultFormatting(t *testing.T) {
	checks := []struct {
		name  string
		title string
		text  func() (string, error)
	}{
		{"tab1", "Table I", func() (string, error) { return Tab1().String(), nil }},
		{"fig9", "Fig. 9", func() (string, error) { return Fig9().String(), nil }},
		{"fig2", "Fig. 2", func() (string, error) {
			r, err := Fig2(DefaultSeed)
			if err != nil {
				return "", err
			}
			return r.String(), nil
		}},
		{"fig3", "Fig. 3", func() (string, error) {
			r, err := Fig3(DefaultSeed)
			if err != nil {
				return "", err
			}
			return r.String(), nil
		}},
		{"fig4", "Fig. 4", func() (string, error) {
			r, err := Fig4(DefaultSeed)
			if err != nil {
				return "", err
			}
			return r.String(), nil
		}},
		{"scale", "scalability", func() (string, error) { return ScaleSched(DefaultSeed).String(), nil }},
	}
	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			text, err := c.text()
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(text, c.title) {
				t.Errorf("output missing title %q:\n%s", c.title, text)
			}
			if strings.Count(text, "\n") < 2 {
				t.Errorf("output suspiciously short:\n%s", text)
			}
		})
	}
}

// TestTableLayout checks the column padder directly.
func TestTableLayout(t *testing.T) {
	out := table([]string{"a", "long-header"}, [][]string{
		{"value-longer-than-header", "x"},
		{"b", "y"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	if len(lines[0]) != len(lines[1]) || len(lines[1]) != len(lines[2]) {
		t.Errorf("rows not aligned:\n%s", out)
	}
}

// TestSpark covers the sparkline renderer edge cases.
func TestSpark(t *testing.T) {
	if got := spark(nil); len([]rune(got)) != 48 {
		t.Errorf("empty spark length %d", len([]rune(got)))
	}
	s := spark([]float64{0, 0.5, 1})
	if len([]rune(s)) != 48 {
		t.Errorf("spark length %d, want 48", len([]rune(s)))
	}
	if !strings.ContainsRune(s, '█') || !strings.ContainsRune(s, '▁') {
		t.Errorf("spark lacks dynamic range: %q", s)
	}
}
