package dataset

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
	"csmaterials/internal/stats"
)

// miniCourses builds a small valid corpus by cloning a couple of seed
// courses under fresh IDs (tags are already guideline-valid; material
// IDs are re-minted to stay globally unique inside the new repository).
func miniCourses(t *testing.T, n int) []*materials.Course {
	t.Helper()
	seed := Courses()
	if n > len(seed) {
		t.Fatalf("miniCourses(%d): seed has only %d", n, len(seed))
	}
	out := make([]*materials.Course, 0, n)
	for i := 0; i < n; i++ {
		src := seed[i]
		c := &materials.Course{
			ID: "mini-" + src.ID, Name: "Mini " + src.Name,
			Group: src.Group, SecondaryGroup: src.SecondaryGroup,
		}
		for j, m := range src.Materials {
			mm := *m
			mm.ID = c.ID + "-m" + string(rune('a'+j%26)) + string(rune('a'+(j/26)%26))
			c.Materials = append(c.Materials, &mm)
		}
		out = append(out, c)
	}
	return out
}

func TestValidateID(t *testing.T) {
	for _, ok := range []string{"default", "a", "pdc-2024", "x_y.z", "0abc"} {
		if err := ValidateID(ok); err != nil {
			t.Errorf("ValidateID(%q) = %v, want nil", ok, err)
		}
	}
	long := strings.Repeat("a", MaxIDLength+1)
	for _, bad := range []string{"", "UPPER", "has space", "a/b", "a|b", "a@b", "-lead", ".lead", long} {
		if err := ValidateID(bad); err == nil {
			t.Errorf("ValidateID(%q) = nil, want error", bad)
		}
	}
}

// refIDPattern is the regexp ValidateID used before its byte check; it
// stays here as the reference FuzzValidateID holds the check to.
var refIDPattern = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]*$`)

// FuzzValidateID: ValidateID accepts exactly the IDs the reference
// regexp accepts within the length bound.
func FuzzValidateID(f *testing.F) {
	for _, seed := range []string{
		"default", "a", "pdc-2024", "x_y.z", "0abc",
		"", "UPPER", "has space", "a/b", "a|b", "a@b", "-lead", ".lead", "_lead",
		"|", "@", "/", "aB", "a.", "a\n", "a\x00", "caf\u00e9", "\xff", "a\xc3",
		strings.Repeat("a", MaxIDLength), strings.Repeat("a", MaxIDLength+1),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, id string) {
		want := id != "" && len(id) <= MaxIDLength && refIDPattern.MatchString(id)
		if got := ValidateID(id) == nil; got != want {
			t.Fatalf("ValidateID(%q) accepts = %v, reference regexp = %v", id, got, want)
		}
	})
}

func TestRegistrySeedsDefault(t *testing.T) {
	r := NewRegistry(nil)
	def := r.Default()
	if def == nil || def.ID() != DefaultID || def.Revision() != 1 {
		t.Fatalf("default snapshot = %+v", def)
	}
	if def.Repo() != Repository() {
		t.Error("default must serve the shared seed repository")
	}
	if !def.LoadedAt().IsZero() {
		t.Error("nil clock must leave LoadedAt zero")
	}
	m := def.Meta()
	if m.Courses != 20 || m.Materials == 0 {
		t.Errorf("default meta = %+v, want the 20-course seed corpus", m)
	}
	if got := r.IDs(); len(got) != 1 || got[0] != DefaultID {
		t.Errorf("IDs() = %v", got)
	}
}

func TestPutRevisionsAndIsolation(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	r := NewRegistry(func() time.Time { return now })
	cs := miniCourses(t, 3)

	s1, err := r.Put("alt", cs)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if s1.Revision() != 1 || s1.ID() != "alt" {
		t.Fatalf("first revision = %+v", s1.Meta())
	}
	if !s1.LoadedAt().Equal(now) {
		t.Errorf("LoadedAt = %v, want %v", s1.LoadedAt(), now)
	}

	// Re-ingest: a new snapshot under revision 2; the old snapshot
	// pointer keeps serving its own corpus (no torn reads).
	s2, err := r.Put("alt", miniCourses(t, 2))
	if err != nil {
		t.Fatalf("re-Put: %v", err)
	}
	if s2.Revision() != 2 {
		t.Fatalf("second revision = %d, want 2", s2.Revision())
	}
	if len(s1.Repo().Courses()) != 3 || len(s2.Repo().Courses()) != 2 {
		t.Error("old snapshot mutated by re-ingest")
	}
	cur, _ := r.Get("alt")
	if cur != s2 {
		t.Error("Get must return the newest snapshot")
	}

	// Catalog order is registration order, default first.
	metas := r.List()
	if len(metas) != 2 || metas[0].ID != DefaultID || metas[1].ID != "alt" {
		t.Errorf("List() = %+v", metas)
	}
}

func TestPutRejectsInvalid(t *testing.T) {
	r := NewRegistry(nil)
	if _, err := r.Put("Bad/ID", miniCourses(t, 1)); err == nil {
		t.Error("invalid ID must be rejected")
	}
	if _, err := r.Put("empty", nil); err == nil {
		t.Error("empty course list must be rejected")
	}
	bad := miniCourses(t, 1)
	bad[0].Materials[0].Tags = append(bad[0].Materials[0].Tags, "NoSuchKA:NoSuchKU:nonsense")
	if _, err := r.Put("badtags", bad); err == nil {
		t.Error("unknown guideline tags must be rejected")
	}
	if _, ok := r.Get("badtags"); ok {
		t.Error("failed Put must not register anything")
	}
}

func TestDeleteProtectionAndRevisionContinuity(t *testing.T) {
	r := NewRegistry(nil)
	if err := r.Delete(DefaultID); !errors.Is(err, ErrProtected) {
		t.Errorf("Delete(default) = %v, want ErrProtected", err)
	}
	if err := r.Delete("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete(ghost) = %v, want ErrNotFound", err)
	}

	if _, err := r.Put("alt", miniCourses(t, 2)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := r.Delete("alt"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok := r.Get("alt"); ok {
		t.Error("deleted dataset still resolvable")
	}
	if r.Len() != 1 {
		t.Errorf("Len() = %d after delete, want 1", r.Len())
	}
	// Revision counters survive deletion: re-ingesting the same name
	// continues the sequence so old cache keys can never be reused.
	s, err := r.Put("alt", miniCourses(t, 1))
	if err != nil {
		t.Fatalf("re-Put after delete: %v", err)
	}
	if s.Revision() != 2 {
		t.Errorf("revision after delete+Put = %d, want 2", s.Revision())
	}
}

func TestDocumentRoundTrip(t *testing.T) {
	// A repository saved by SaveJSON ingests unchanged as a Document.
	repo := materials.NewRepository(ontology.CS2013(), ontology.PDC12())
	for _, c := range miniCourses(t, 2) {
		if err := repo.AddCourses(c); err != nil {
			t.Fatalf("AddCourses: %v", err)
		}
	}
	var buf strings.Builder
	if err := repo.SaveJSON(&buf); err != nil {
		t.Fatalf("SaveJSON: %v", err)
	}
	var doc Document
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("unmarshal saved repository: %v", err)
	}
	r := NewRegistry(nil)
	s, err := r.Put("mini", doc.Courses)
	if err != nil {
		t.Fatalf("Put(saved document): %v", err)
	}
	if len(s.Repo().Courses()) != 2 {
		t.Errorf("round-tripped dataset has %d courses, want 2", len(s.Repo().Courses()))
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, doc Document) {
		t.Helper()
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("beta.json", Document{Courses: miniCourses(t, 1)})
	write("alpha.json", Document{Courses: miniCourses(t, 2)})
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("ignored"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry(nil)
	loaded, err := r.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	// Lexical filename order, stems as IDs, non-JSON ignored.
	if len(loaded) != 2 || loaded[0] != "alpha" || loaded[1] != "beta" {
		t.Fatalf("loaded = %v", loaded)
	}
	if r.Len() != 3 {
		t.Errorf("Len() = %d, want default + 2", r.Len())
	}
	// The decoded documents share their tags and types.
	for _, id := range loaded {
		snap, _ := r.Get(id)
		checkShared(t, snap.Repo().Vocabulary(), snap.Repo().Materials())
	}

	// A broken file aborts the load but keeps prior registrations.
	if err := os.WriteFile(filepath.Join(dir, "aaa.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry(nil)
	if _, err := r2.LoadDir(dir); err == nil {
		t.Fatal("invalid JSON must fail LoadDir")
	}

	if _, err := r.LoadDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing directory must error")
	}
}

// TestAttrsSurviveReingestAndDelete pins the ownership contract: attrs
// are set once, survive every re-ingest revision, survive Delete (so a
// deleted name cannot be silently claimed by another tenant), and
// compose into the catalog Meta without living inside the snapshot.
func TestAttrsSurviveReingestAndDelete(t *testing.T) {
	r := NewRegistry(nil)
	cs := miniCourses(t, 2)
	if _, err := r.Put("tenant", cs); err != nil {
		t.Fatal(err)
	}
	r.SetAttrs("tenant", Attrs{Owner: "alice", CacheBudget: 9, Weight: 2})

	// Re-ingest twice: revisions advance, attrs stay.
	for want := uint64(2); want <= 3; want++ {
		snap, err := r.Put("tenant", cs)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Revision() != want {
			t.Fatalf("revision = %d, want %d", snap.Revision(), want)
		}
		if a := r.Attrs("tenant"); a.Owner != "alice" || a.CacheBudget != 9 || !stats.WithinTol(a.Weight, 2, 0) {
			t.Fatalf("attrs after re-ingest = %+v", a)
		}
	}
	m, ok := r.MetaOf("tenant")
	if !ok || m.Owner != "alice" || m.Revision != 3 {
		t.Fatalf("MetaOf = %+v, %v", m, ok)
	}
	var found bool
	for _, lm := range r.List() {
		if lm.ID == "tenant" {
			found = true
			if lm.Owner != "alice" {
				t.Fatalf("List meta owner = %q", lm.Owner)
			}
		}
	}
	if !found {
		t.Fatal("tenant missing from List")
	}

	if err := r.Delete("tenant"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.MetaOf("tenant"); ok {
		t.Fatal("deleted dataset still in catalog")
	}
	if a := r.Attrs("tenant"); a.Owner != "alice" {
		t.Fatalf("ownership lost on Delete: %+v", a)
	}
	// Re-creating the name continues under the original owner.
	snap, err := r.Put("tenant", cs)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Revision() != 4 {
		t.Fatalf("revision after re-create = %d, want 4", snap.Revision())
	}
	if m, _ := r.MetaOf("tenant"); m.Owner != "alice" {
		t.Fatalf("owner after re-create = %q, want alice", m.Owner)
	}
}

// TestSetOwnerLeavesOtherAttrs: SetOwner is a partial update.
func TestSetOwnerLeavesOtherAttrs(t *testing.T) {
	r := NewRegistry(nil)
	r.SetAttrs("d", Attrs{CacheBudget: 5})
	r.SetOwner("d", "bob")
	if a := r.Attrs("d"); a.Owner != "bob" || a.CacheBudget != 5 {
		t.Fatalf("attrs = %+v", a)
	}
}
