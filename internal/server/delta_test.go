package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
)

// patchEnv decodes a PATCH /api/v1/datasets/{ds} envelope.
type patchEnv struct {
	Data json.RawMessage `json:"data"`
	Meta struct {
		Delta   dataset.Delta       `json:"delta"`
		Refresh engine.DeltaOutcome `json:"refresh"`
	} `json:"meta"`
}

// retagBody builds the smallest valid delta for a dataset: retag the
// first course's first material with its current tags. The revision
// bumps and the delta is non-empty, but no tag set changes.
func retagBody(t *testing.T, s *Server, id string) string {
	t.Helper()
	snap, ok := s.Datasets().Get(id)
	if !ok {
		t.Fatalf("unknown dataset %q", id)
	}
	c := snap.Repo().Courses()[0]
	m := c.Materials[0]
	raw, err := json.Marshal(PatchRequest{Events: []dataset.Event{{
		Op: dataset.OpRetag, Course: c.ID, MaterialID: m.ID,
		Tags: append([]string(nil), m.Tags...),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestDatasetPatch covers the happy path of the delta ingest route:
// the revision bumps, the envelope reports the delta summary and the
// refresh outcome, {"invalidated": n}, and a retag that keeps every
// tag set drops nothing.
func TestDatasetPatch(t *testing.T) {
	s := newObsServer(t, Options{})
	putDataset(t, s, "alt", 3)

	// Warm one scoped entry so the refresh has something to reconcile.
	if e, _ := agreementCourses(t, s, "/api/v1/datasets/alt/agreement"); e.Meta.Revision != 1 {
		t.Fatalf("pre-patch revision = %d, want 1", e.Meta.Revision)
	}

	w := do(t, s, http.MethodPatch, "/api/v1/datasets/alt", retagBody(t, s, "alt"))
	if w.Code != http.StatusOK {
		t.Fatalf("PATCH: status %d\n%s", w.Code, w.Body.Bytes())
	}
	var pe patchEnv
	decode(t, w.Body.Bytes(), &pe)
	var m dataset.Meta
	decode(t, pe.Data, &m)
	if m.Revision != 2 {
		t.Errorf("patched revision = %d, want 2", m.Revision)
	}
	if pe.Meta.Delta.Events != 1 || pe.Meta.Delta.Retagged != 1 || len(pe.Meta.Delta.Courses) != 1 {
		t.Errorf("delta summary = %+v", pe.Meta.Delta)
	}
	var refresh struct {
		Meta struct {
			Refresh map[string]int `json:"refresh"`
		} `json:"meta"`
	}
	decode(t, w.Body.Bytes(), &refresh)
	if got := refresh.Meta.Refresh; len(got) != 1 || got["invalidated"] != 0 {
		t.Errorf(`meta.refresh = %v, want {"invalidated": 0}`, got)
	}

	// The dataset serves the new revision; the engine counted one delta
	// refresh for the patch (the initial PUT was the lone full one).
	if e, n := agreementCourses(t, s, "/api/v1/datasets/alt/agreement"); e.Meta.Revision != 2 || n != 3 {
		t.Errorf("post-patch agreement = rev %d, %d courses; want rev 2, 3", e.Meta.Revision, n)
	}
	st := s.Engine().Stats().Refresh["alt"]
	if st.Delta != 1 || st.Full != 1 {
		t.Errorf("refresh counts = (%d delta, %d full), want (1, 1)", st.Delta, st.Full)
	}

	// A PUT re-ingest of the same dataset refreshes full, not delta.
	putDataset(t, s, "alt", 3)
	st = s.Engine().Stats().Refresh["alt"]
	if st.Delta != 1 || st.Full != 2 {
		t.Errorf("refresh counts after re-ingest = (%d delta, %d full), want (1, 2)", st.Delta, st.Full)
	}
}

// TestDatasetPatchErrors pins the delta route's error envelope:
// malformed bodies and unknown targets map onto the API's uniform
// codes.
func TestDatasetPatchErrors(t *testing.T) {
	s := newObsServer(t, Options{})
	putDataset(t, s, "alt", 3)

	wantErrCode(t, do(t, s, http.MethodPatch, "/api/v1/datasets/alt", `{"events":[]}`),
		http.StatusBadRequest, "bad_request")
	wantErrCode(t, do(t, s, http.MethodPatch, "/api/v1/datasets/alt", `{"nope":1}`),
		http.StatusBadRequest, "bad_request")
	wantErrCode(t, do(t, s, http.MethodPatch, "/api/v1/datasets/ghost", retagBody(t, s, "alt")),
		http.StatusNotFound, "not_found")
	wantErrCode(t, do(t, s, http.MethodPatch, "/api/v1/datasets/alt",
		`{"events":[{"op":"retag","course":"no-such-course","material_id":"x","tags":["AL/Basic Analysis"]}]}`),
		http.StatusBadRequest, "bad_request")
	// A failed delta leaves the revision untouched.
	if snap, _ := s.Datasets().Get("alt"); snap.Revision() != 1 {
		t.Errorf("revision after failed patches = %d, want 1", snap.Revision())
	}
}

// TestDatasetPatchAuth proves PATCH sits behind the same gates as PUT:
// 401 without a key, 403 for the wrong tenant, and a first keyed patch
// claims an unowned dataset.
func TestDatasetPatchAuth(t *testing.T) {
	s := keyedServer(t)
	if w := doKey(t, s, http.MethodPut, "/api/v1/datasets/mine", corpusDoc(t, 3), "alice-secret"); w.Code != 200 {
		t.Fatalf("seed ingest: status %d\n%s", w.Code, w.Body.Bytes())
	}
	body := retagBody(t, s, "mine")
	wantErrCode(t, doKey(t, s, http.MethodPatch, "/api/v1/datasets/mine", body, ""),
		http.StatusUnauthorized, "unauthorized")
	wantErrCode(t, doKey(t, s, http.MethodPatch, "/api/v1/datasets/mine", body, "bob-secret"),
		http.StatusForbidden, "forbidden")
	if w := doKey(t, s, http.MethodPatch, "/api/v1/datasets/mine", body, "alice-secret"); w.Code != 200 {
		t.Fatalf("owner patch: status %d\n%s", w.Code, w.Body.Bytes())
	}
	if w := doKey(t, s, http.MethodPatch, "/api/v1/datasets/mine", retagBody(t, s, "mine"), "root-secret"); w.Code != 200 {
		t.Fatalf("admin patch: status %d\n%s", w.Code, w.Body.Bytes())
	}
}

// TestKeysRotation is the rotation-without-restart contract: after a
// reload, keys removed from the source stop authenticating, new keys
// start, and ownership claimed at runtime persists — revoking alice's
// secret must not orphan alice's dataset.
func TestKeysRotation(t *testing.T) {
	current := &KeysFile{Keys: []APIKey{
		{Key: "alice-secret", Name: "alice"},
		{Key: "root-secret", Name: "root", Admin: true},
	}}
	var mu sync.Mutex
	s := newObsServer(t, Options{
		APIKeys: current,
		ReloadKeys: func() (*KeysFile, error) {
			mu.Lock()
			defer mu.Unlock()
			return current, nil
		},
	})

	// alice ingests and thereby claims "mine" at runtime (no grant in
	// the keys file).
	if w := doKey(t, s, http.MethodPut, "/api/v1/datasets/mine", corpusDoc(t, 3), "alice-secret"); w.Code != 200 {
		t.Fatalf("alice ingest: status %d\n%s", w.Code, w.Body.Bytes())
	}
	if owner := s.Datasets().Attrs("mine").Owner; owner != "alice" {
		t.Fatalf("owner = %q, want alice", owner)
	}

	// Rotate: alice out, carol in; a grant pre-owns "granted" for carol.
	mu.Lock()
	current = &KeysFile{
		Keys: []APIKey{
			{Key: "carol-secret", Name: "carol"},
			{Key: "root-secret", Name: "root", Admin: true},
		},
		Datasets: map[string]DatasetGrant{"granted": {Owner: "carol"}},
	}
	mu.Unlock()

	// Only an admin key may reload.
	wantErrCode(t, doKey(t, s, http.MethodPost, "/api/v1/keys/reload", "", ""),
		http.StatusUnauthorized, "unauthorized")
	wantErrCode(t, doKey(t, s, http.MethodPost, "/api/v1/keys/reload", "", "alice-secret"),
		http.StatusForbidden, "forbidden")
	w := doKey(t, s, http.MethodPost, "/api/v1/keys/reload", "", "root-secret")
	if w.Code != http.StatusOK {
		t.Fatalf("reload: status %d\n%s", w.Code, w.Body.Bytes())
	}
	var re struct {
		Data KeysReloaded `json:"data"`
	}
	decode(t, w.Body.Bytes(), &re)
	if re.Data.Keys != 2 {
		t.Errorf("reloaded keyring size = %d, want 2", re.Data.Keys)
	}

	// The revoked key is dead on the very next request.
	wantErrCode(t, doKey(t, s, http.MethodPut, "/api/v1/datasets/mine", corpusDoc(t, 3), "alice-secret"),
		http.StatusUnauthorized, "unauthorized")
	// alice's runtime claim survived the rotation: carol cannot take the
	// dataset over, an admin still can mutate it.
	if owner := s.Datasets().Attrs("mine").Owner; owner != "alice" {
		t.Fatalf("owner after rotation = %q, want alice", owner)
	}
	wantErrCode(t, doKey(t, s, http.MethodPut, "/api/v1/datasets/mine", corpusDoc(t, 2), "carol-secret"),
		http.StatusForbidden, "forbidden")
	if w := doKey(t, s, http.MethodPut, "/api/v1/datasets/mine", corpusDoc(t, 2), "root-secret"); w.Code != 200 {
		t.Fatalf("admin ingest after rotation: status %d\n%s", w.Code, w.Body.Bytes())
	}
	// The new key works, and the reloaded grant pre-owns its dataset.
	wantErrCode(t, doKey(t, s, http.MethodPut, "/api/v1/datasets/granted", corpusDoc(t, 2), "root2"),
		http.StatusUnauthorized, "unauthorized")
	if w := doKey(t, s, http.MethodPut, "/api/v1/datasets/granted", corpusDoc(t, 2), "carol-secret"); w.Code != 200 {
		t.Fatalf("carol ingest of granted dataset: status %d\n%s", w.Code, w.Body.Bytes())
	}
}

// TestKeysReloadStatic pins the no-reload-source behavior: a keyring
// loaded once with no ReloadKeys answers 409 keys_static (after the
// admin gate), and an open-mode server without a source does too.
func TestKeysReloadStatic(t *testing.T) {
	wantErrCode(t, doKey(t, keyedServer(t), http.MethodPost, "/api/v1/keys/reload", "", "root-secret"),
		http.StatusConflict, "keys_static")
	wantErrCode(t, do(t, newObsServer(t, Options{}), http.MethodPost, "/api/v1/keys/reload", ""),
		http.StatusConflict, "keys_static")
}

// TestConcurrentPatchVsReadersVsRefresh extends the PR 6 torn-read
// test to the delta path: PATCH deltas land while readers hammer a
// scoped analysis and background warmups (spawned by each patch)
// recompute — all under -race. Readers must always see a complete
// 3-course corpus from exactly one revision.
func TestConcurrentPatchVsReadersVsRefresh(t *testing.T) {
	// Warmup stays enabled: every patch spawns a background warmDataset,
	// which is exactly the delta-refresh / reader / warmer interleaving
	// the race detector should chew on.
	s, err := NewWithOptions(Options{})
	if err != nil {
		t.Fatal(err)
	}
	putDataset(t, s, "alt", 3)

	const readers, patches = 4, 6
	var wg sync.WaitGroup
	errs := make(chan string, readers*64)
	stop := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := do(t, s, http.MethodGet, "/api/v1/datasets/alt/agreement", "")
				if w.Code != http.StatusOK {
					errs <- fmt.Sprintf("reader status %d: %s", w.Code, w.Body.Bytes())
					return
				}
				var e dsEnv
				if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
					errs <- err.Error()
					return
				}
				var data struct {
					Courses []string `json:"courses"`
				}
				if err := json.Unmarshal(e.Data, &data); err != nil {
					errs <- err.Error()
					return
				}
				if len(data.Courses) != 3 {
					errs <- fmt.Sprintf("torn read: %d courses (rev %d)", len(data.Courses), e.Meta.Revision)
					return
				}
			}
		}()
	}
	for i := 0; i < patches; i++ {
		w := do(t, s, http.MethodPatch, "/api/v1/datasets/alt", retagBody(t, s, "alt"))
		if w.Code != http.StatusOK {
			t.Errorf("patch %d: status %d\n%s", i, w.Code, w.Body.Bytes())
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	s.DrainBackground()

	// Epilogue: the final revision serves, and every refresh was
	// delta-driven (the initial PUT is the lone full refresh).
	e, n := agreementCourses(t, s, "/api/v1/datasets/alt/agreement")
	if e.Meta.Revision != uint64(patches)+1 || n != 3 {
		t.Errorf("final agreement = rev %d, %d courses; want rev %d, 3", e.Meta.Revision, n, patches+1)
	}
	st := s.Engine().Stats().Refresh["alt"]
	if st.Delta != patches {
		t.Errorf("delta refreshes = %d, want %d", st.Delta, patches)
	}
}

// TestDatasetPatchDeltaBytes pins the meta.delta block of a PATCH
// response byte for byte: one batch that adds, removes, retags a
// material to a new tag set and retags one to its own tags, across
// courses of four groups.
func TestDatasetPatchDeltaBytes(t *testing.T) {
	s := newObsServer(t, Options{})
	body := `{"events":[
		{"op":"retag","course":"hanover-cs225-wahl","material_id":"hanover-cs225-wahl/m000",
		 "tags":["AL/basic-analysis/time-and-space-trade-offs-in-algorithms"]},
		{"op":"retag","course":"ccc-csci40-kerney","material_id":"ccc-csci40-kerney/m001",
		 "tags":["SDF/fundamental-programming-concepts/variables-and-primitive-data-types"]},
		{"op":"add","course":"ucf-cop3502-ahmed","material":{"id":"ucf-cop3502-ahmed/new",
		 "title":"New lab","type":"lab","tags":["PD/parallelism-fundamentals/multiple-simultaneous-computations"]}},
		{"op":"remove","course":"knox-cs309-bunde","material_id":"knox-cs309-bunde/m002"}]}`
	w := do(t, s, http.MethodPatch, "/api/v1/datasets/default", body)
	if w.Code != http.StatusOK {
		t.Fatalf("PATCH: status %d\n%s", w.Code, w.Body.Bytes())
	}
	var env struct {
		Meta struct {
			Delta json.RawMessage `json:"delta"`
		} `json:"meta"`
	}
	decode(t, w.Body.Bytes(), &env)
	const want = `{
      "events": 4,
      "added": 1,
      "removed": 1,
      "retagged": 2,
      "courses": [
        "ccc-csci40-kerney",
        "hanover-cs225-wahl",
        "knox-cs309-bunde",
        "ucf-cop3502-ahmed"
      ],
      "tags": [
        "AL/algorithmic-strategies/use-dynamic-programming-to-solve-an-appropriate-problem",
        "AL/basic-analysis/time-and-space-trade-offs-in-algorithms",
        "AL/fundamental-data-structures-and-algorithms/implement-common-quadratic-and-o-n-log-n-sorting-algorithms",
        "AR/digital-logic-and-digital-systems/explain-the-progression-from-transistors-to-gates-to-components",
        "PD/parallel-performance/load-balancing-and-scheduling-overheads",
        "PD/parallelism-fundamentals/multiple-simultaneous-computations",
        "PL/formal-semantics/hoare-logic-and-axiomatic-semantics",
        "PROG/parallel-programming-paradigms/client-server-and-distributed-object-paradigms",
        "SDF/algorithms-and-design/apply-the-techniques-of-decomposition-to-break-a-program-into-smaller-pieces",
        "SDF/fundamental-programming-concepts/functions-and-parameter-passing",
        "SDF/fundamental-programming-concepts/variables-and-primitive-data-types"
      ],
      "groups": [
        "algo",
        "cs1",
        "ds",
        "pdc"
      ]
    }`
	if got := string(env.Meta.Delta); got != want {
		t.Errorf("meta.delta =\n%s\nwant\n%s", got, want)
	}
}
