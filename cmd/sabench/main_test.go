package main

import (
	"strings"
	"testing"
)

// A misspelled -experiment must fail loudly and name the valid values;
// every listed name, and "all", must resolve.
func TestSelectExperiments(t *testing.T) {
	for _, tc := range []struct {
		name string
		want int // experiments selected; 0 = error
	}{
		{"all", len(experiments)},
		{"fig1", 1}, {"explain", 1}, {"autotune", 1},
		{"explian", 0}, {"", 0}, {"ALL", 0}, {"fig1,fig4", 0},
	} {
		got, err := selectExperiments(tc.name)
		if len(got) != tc.want || (err == nil) != (tc.want > 0) {
			t.Errorf("selectExperiments(%q) = %d experiments, err %v; want %d", tc.name, len(got), err, tc.want)
		}
		if err != nil && !strings.Contains(err.Error(), "fig1|fig4") {
			t.Errorf("selectExperiments(%q) error does not list the valid names: %v", tc.name, err)
		}
	}
	for _, e := range experiments {
		if got, err := selectExperiments(e.name); err != nil || len(got) != 1 || got[0].name != e.name {
			t.Errorf("listed experiment %q does not resolve: %v", e.name, err)
		}
	}
}
