package analyses_test

import (
	"net/url"
	"reflect"
	"testing"

	"csmaterials/internal/engine"
	"csmaterials/internal/engine/analyses"
)

// FuzzCacheKey: for every registered analysis, two query strings that
// both parse and validate name equal parameters exactly when their
// cache keys are equal. Two spellings of one parameter set share a key,
// and one key never names two parameter sets.
func FuzzCacheKey(f *testing.F) {
	reg, err := analyses.Default()
	if err != nil {
		f.Fatal(err)
	}
	// The delta oracle's grid spellings, then case, default and
	// zero-padded variants of them.
	var grid []string
	for _, g := range []string{"all", "cs1", "ds", "dsalgo", "pdc"} {
		grid = append(grid,
			"group="+g+"&threshold=2", "group="+g+"&threshold=3",
			"group="+g+"&k=2", "group="+g+"&k=3", "group="+g+"&k=4")
	}
	for _, c := range []string{"hanover-cs225-wahl", "lsu%7Ccsc1350%7Ckundu", "no-such-course"} {
		grid = append(grid, "course="+c, "course="+c+"&limit=3")
	}
	grid = append(grid, "id=1", "id=3a", "id=no-such-figure")
	for i, q := range grid {
		f.Add(q, grid[(i+1)%len(grid)])
	}
	for _, pair := range [][2]string{
		{"group=CS1", "group=cs1"},
		{"group=cs1", ""},
		{"group=ALL&k=4", "k=4"},
		{"group=all", ""},
		{"group=cs1&k=3", "group=cs1"},
		{"group=all&k=4", "group=all"},
		{"threshold=2", ""},
		{"course=hanover-cs225-wahl&limit=010", "course=hanover-cs225-wahl"},
		{"course=a%7C5&limit=10", "course=a&limit=5"},
		{"id=3a", "id=3A"},
	} {
		f.Add(pair[0], pair[1])
	}
	f.Fuzz(func(t *testing.T, q1, q2 string) {
		v1, err1 := url.ParseQuery(q1)
		v2, err2 := url.ParseQuery(q2)
		if err1 != nil || err2 != nil {
			return
		}
		for _, name := range reg.Names() {
			a, _ := reg.Get(name)
			p1, ok1 := parse(a, v1)
			p2, ok2 := parse(a, v2)
			if !ok1 || !ok2 {
				continue
			}
			k1, k2 := engine.Key(a, p1), engine.Key(a, p2)
			if reflect.DeepEqual(p1, p2) != (k1 == k2) {
				t.Fatalf("%s: %q parses to %+v, key %q; %q parses to %+v, key %q", name, q1, p1, k1, q2, p2, k2)
			}
		}
	})
}

// parse parses and validates v for a, as the executor does.
func parse(a engine.Analysis, v url.Values) (engine.Params, bool) {
	p, err := a.Parse(v)
	if err != nil || p.Validate() != nil {
		return nil, false
	}
	return p, true
}
