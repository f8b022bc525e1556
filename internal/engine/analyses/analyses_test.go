package analyses_test

import (
	"context"
	"errors"
	"net/url"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
)

func defaultRegistry(t *testing.T) *engine.Registry {
	t.Helper()
	reg, err := analyses.Default()
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestDefaultRegistry: the full analysis surface registers, and every
// entry produces a canonical cache key from its defaults.
func TestDefaultRegistry(t *testing.T) {
	reg := defaultRegistry(t)
	want := []string{"agreement", "types", "cluster", "anchors", "audit", "pdcmaterials", "figures"}
	names := reg.Names()
	if len(names) != len(want) {
		t.Fatalf("registered %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("registered %v, want %v", names, want)
		}
	}
}

// TestParseDefaultsAndKeys pins the canonical cache keys: equal
// parameter sets must map to equal keys regardless of request spelling,
// because the key identifies the cache entry and the breaker-guarded
// flight.
func TestParseDefaultsAndKeys(t *testing.T) {
	reg := defaultRegistry(t)
	cases := []struct {
		analysis string
		query    string
		wantKey  string
	}{
		{"types", "group=cs1&k=3", "types|cs1|3"},
		{"types", "group=CS1&k=3", "types|cs1|3"}, // case-normalized
		{"types", "", "types|all|4"},              // all-group default k is 4
		{"types", "group=cs1", "types|cs1|3"},     // single-group default k is 3
		{"cluster", "", "cluster|all|4"},
		{"cluster", "group=all&k=4", "cluster|all|4"},
		{"agreement", "", "agreement|all|2"},
		{"agreement", "group=pdc&threshold=3", "agreement|pdc|3"},
		{"figures", "id=3a", "figures|3a"},
		{"anchors", "course=vcu-cmsc256-duke", "anchors|vcu-cmsc256-duke"},
		{"pdcmaterials", "course=vcu-cmsc256-duke", "pdcmaterials|vcu-cmsc256-duke|10"},
	}
	for _, tc := range cases {
		t.Run(tc.analysis+"?"+tc.query, func(t *testing.T) {
			a, ok := reg.Get(tc.analysis)
			if !ok {
				t.Fatalf("analysis %q not registered", tc.analysis)
			}
			v, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			p, err := a.Parse(v)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			if key := engine.Key(a, p); key != tc.wantKey {
				t.Fatalf("key = %q, want %q", key, tc.wantKey)
			}
		})
	}
}

// TestParseRejections: malformed numbers, unknown groups, and missing
// required parameters fail Parse/Validate before any compute happens.
func TestParseRejections(t *testing.T) {
	reg := defaultRegistry(t)
	cases := []struct {
		analysis string
		query    string
	}{
		{"types", "k=banana"},
		{"types", "k=0"},
		{"types", "group=bogus"},
		{"agreement", "threshold=0"},
		{"agreement", "group=bogus"},
		{"cluster", "k=-1"},
		{"pdcmaterials", "course=vcu-cmsc256-duke&limit=-3"},
		{"anchors", ""},      // missing course
		{"pdcmaterials", ""}, // missing course
		{"figures", ""},      // missing id
	}
	for _, tc := range cases {
		t.Run(tc.analysis+"?"+tc.query, func(t *testing.T) {
			a, _ := reg.Get(tc.analysis)
			v, _ := url.ParseQuery(tc.query)
			p, err := a.Parse(v)
			if err == nil {
				err = p.Validate()
			}
			if err == nil {
				t.Fatal("malformed input survived Parse+Validate")
			}
		})
	}
}

// TestComputeNotFound: unknown courses and figures come back as typed
// 404 *Errors, which the executor treats as client errors (no breaker
// impact).
func TestComputeNotFound(t *testing.T) {
	reg := defaultRegistry(t)
	repo := dataset.Repository()
	cases := []struct {
		analysis string
		query    string
	}{
		{"anchors", "course=ghost"},
		{"audit", "course=ghost"},
		{"pdcmaterials", "course=ghost"},
		{"figures", "id=99"},
	}
	for _, tc := range cases {
		t.Run(tc.analysis, func(t *testing.T) {
			a, _ := reg.Get(tc.analysis)
			v, _ := url.ParseQuery(tc.query)
			p, err := a.Parse(v)
			if err != nil {
				t.Fatal(err)
			}
			_, err = a.Compute(context.Background(), repo, p)
			var ee *engine.Error
			if !errors.As(err, &ee) || ee.Status != 404 || ee.Code != "not_found" {
				t.Fatalf("err = %v, want 404 not_found", err)
			}
		})
	}
}

// TestTypesComputeHonoursCancellation: the NNMF compute behind the
// types analysis returns ctx.Err() instead of factorizing for nobody.
// (internal/nnmf's own tests prove mid-iteration cancellation; this
// pins the wiring from the analysis layer down.)
func TestTypesComputeHonoursCancellation(t *testing.T) {
	reg := defaultRegistry(t)
	a, _ := reg.Get("types")
	p, err := a.Parse(url.Values{"group": []string{"all"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = a.Compute(ctx, dataset.Repository(), p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled types compute returned %v, want context.Canceled", err)
	}
}

// TestAgreementComputeHonoursCancellation mirrors the types check for
// the agreement scan.
func TestAgreementComputeHonoursCancellation(t *testing.T) {
	reg := defaultRegistry(t)
	a, _ := reg.Get("agreement")
	p, err := a.Parse(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = a.Compute(ctx, dataset.Repository(), p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled agreement compute returned %v, want context.Canceled", err)
	}
}

// TestGroupsDerivedFromRepository pins the group rosters to the
// repository's own course metadata: since the dataset registry made
// analyses run over arbitrary corpora, group membership is derived
// from each course's Group/SecondaryGroup fields — on the seed corpus
// that derivation must reproduce the paper's exact rosters (§4.3-§4.6).
func TestGroupsDerivedFromRepository(t *testing.T) {
	reg := defaultRegistry(t)
	a, _ := reg.Get("agreement")
	repo := dataset.Repository()
	for group, want := range map[string][]string{
		"cs1":    dataset.CS1CourseIDs(),
		"ds":     dataset.DSCourseIDs(),
		"dsalgo": dataset.DSAlgoCourseIDs(),
		"pdc":    dataset.PDCCourseIDs(),
		"all":    dataset.AllCourseIDs(),
	} {
		p, err := a.Parse(url.Values{"group": []string{group}})
		if err != nil {
			t.Fatalf("parse group %q: %v", group, err)
		}
		v, err := a.Compute(context.Background(), repo.Restrict(a.Scope(p)), p)
		if err != nil {
			t.Fatalf("compute group %q: %v", group, err)
		}
		got := v.(*analyses.AgreementResponse).Courses
		if len(got) != len(want) {
			t.Fatalf("group %q roster = %v, want %v", group, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("group %q roster = %v, want %v", group, got, want)
			}
		}
	}
}

// TestGroupOnEmptyCorpus: a corpus with no members of a requested
// group is a typed 404, not a panic or an empty analysis.
func TestGroupOnEmptyCorpus(t *testing.T) {
	reg := defaultRegistry(t)
	a, _ := reg.Get("agreement")
	repo := materials.NewRepository(ontology.CS2013(), ontology.PDC12())
	course := &materials.Course{ID: "solo", Name: "Solo", Group: materials.GroupCS1}
	course.Materials = []*materials.Material{{
		ID: "solo-m1", Title: "Intro", Type: materials.Lecture,
		Tags: []string{dataset.Repository().Courses()[0].Materials[0].Tags[0]},
	}}
	if err := repo.AddCourses(course); err != nil {
		t.Fatal(err)
	}
	p, err := a.Parse(url.Values{"group": []string{"pdc"}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.Compute(context.Background(), repo.Restrict(a.Scope(p)), p)
	var ee *engine.Error
	if !errors.As(err, &ee) || ee.Status != 404 {
		t.Fatalf("pdc over CS1-only corpus = %v, want 404 not_found", err)
	}
}

// TestTypesOfTaglessGroup: courses without a tag give a course matrix
// with no columns, which the factorization rejects as a 400 (it once
// panicked building a dense matrix with no columns); clustering and
// agreement answer as usual.
func TestTypesOfTaglessGroup(t *testing.T) {
	reg := defaultRegistry(t)
	repo := materials.NewRepository(ontology.CS2013(), ontology.PDC12())
	for _, id := range []string{"a", "b", "c", "d"} {
		if err := repo.AddCourses(&materials.Course{ID: id, Name: id, Group: materials.GroupCS1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"types", "cluster", "agreement"} {
		a, _ := reg.Get(name)
		p, err := a.Parse(url.Values{"group": []string{"all"}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = a.Compute(context.Background(), repo, p)
		var ee *engine.Error
		if name == "types" {
			if !errors.As(err, &ee) || ee.Status != 400 {
				t.Fatalf("types of a tagless group = %v, want 400 bad_request", err)
			}
		} else if err != nil {
			t.Fatalf("%s of a tagless group: %v", name, err)
		}
	}
}
