package engine_test

// The delta oracle: a randomized differential test of the incremental
// refresh. A seeded generator draws steps: mostly batches of
// classification events (Registry.Apply), sometimes a whole document
// (Registry.Put) that is identical to the corpus or differs from it in
// one way. After each step and its Executor.ApplyDelta every registered
// analysis is read over a parameter grid and compared, byte for byte
// and error for error, with a cold executor over the same snapshot (a
// fresh cache): the refreshed executor's stored answer bytes against
// the cold answer's value encoded afresh. The whole grid is read before
// each step too, so the answers a refresh keeps, bytes and all, are
// the ones checked. After the sequential reads the grid runs again as
// one Executor.RunBatch, which must answer item for item, in input
// order, with the same bytes and errors.

import (
	"context"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/materials"
	"csmaterials/internal/resilience"
	"csmaterials/internal/serving"
)

// oracleDataset is the dataset the oracle ingests its corpus as; a
// non-default ID so the scoped cache keys are exercised too.
const oracleDataset = "oracle"

// smallCorpus returns seed courses covering every group label the
// group-scoped analyses select on, including the two dual-labelled
// courses: CS1, CS1+DS, DS, DS+OOP, Algo, PDC, OOP and Other. One
// course is renamed to an ID containing '|', the separator a cache
// key joins parameters with, which Course.Validate accepts.
func smallCorpus(t testing.TB) []*materials.Course {
	t.Helper()
	ids := []string{
		"tulane-cmps1100-kurdia", "washu-cse131-singh", "ucf-cop3502-ahmed",
		"uncc-2214-saule", "vcu-cmsc256-duke", "hanover-cs225-wahl",
		"knox-cs309-bunde", "lsu-csc1350-kundu", "uncc-3112-krs", "utsa-bopana",
	}
	byID := map[string]*materials.Course{}
	for _, c := range dataset.Courses() {
		byID[c.ID] = c
	}
	out := make([]*materials.Course, 0, len(ids))
	for _, id := range ids {
		c, ok := byID[id]
		if !ok {
			t.Fatalf("seed corpus has no course %q", id)
		}
		out = append(out, c.Clone())
	}
	out[7].ID = "lsu|csc1350|kundu"
	return out
}

// gridRead is one read of the oracle's parameter grid.
type gridRead struct {
	name   string
	values url.Values
}

func (r gridRead) String() string { return r.name + "?" + r.values.Encode() }

// renamed is the suffix a rename step toggles on a course ID.
const renamed = "-renamed"

// oracleGrid lists the reads for every registered analysis: each group
// with two k or threshold values, each course under its ID and its
// renamed ID (and one unknown course) for the per-course analyses, and
// two figures plus an unknown one. An analysis the grid does not know
// fails the test, so a newly registered analysis cannot escape the
// oracle.
func oracleGrid(t testing.TB, reg *engine.Registry, ids []string) []gridRead {
	t.Helper()
	groups := []string{"all", "cs1", "ds", "dsalgo", "pdc"}
	var courses []string
	for _, id := range ids {
		courses = append(courses, id, id+renamed)
	}
	courses = append(courses, "no-such-course")
	var out []gridRead
	add := func(name string, kv ...string) {
		v := url.Values{}
		for i := 0; i < len(kv); i += 2 {
			v.Set(kv[i], kv[i+1])
		}
		out = append(out, gridRead{name, v})
	}
	for _, name := range reg.Names() {
		switch name {
		case "agreement":
			for _, g := range groups {
				add(name, "group", g, "threshold", "2")
				add(name, "group", g, "threshold", "3")
			}
		case "types":
			for _, g := range groups {
				add(name, "group", g, "k", "2")
				add(name, "group", g, "k", "3")
			}
		case "cluster":
			for _, g := range groups {
				add(name, "group", g, "k", "2")
				add(name, "group", g, "k", "4")
			}
		case "anchors", "audit":
			for _, c := range courses {
				add(name, "course", c)
			}
		case "pdcmaterials":
			for _, c := range courses {
				add(name, "course", c)
				add(name, "course", c, "limit", "3")
			}
		case "figures":
			add(name, "id", "1")
			add(name, "id", "3a")
			add(name, "id", "no-such-figure")
		default:
			t.Fatalf("the delta oracle has no parameter grid for analysis %q", name)
		}
	}
	return out
}

// readAnswer renders one read as comparable text: the data bytes, or
// the error's status, code and message. stored reads the bytes the
// answer carries (encoded on its first read, kept across refreshes);
// otherwise the answer's value is encoded afresh. hit reports that the
// executor served a held answer.
func readAnswer(exec *engine.Executor, r gridRead, stored bool) (text string, hit bool) {
	ans, out, err := exec.AnswerOn(context.Background(), oracleDataset, r.name, r.values)
	if err != nil {
		return renderError(engine.AsError(err)), false
	}
	var b []byte
	if stored {
		b, err = ans.Data()
	} else {
		b, err = serving.EncodeData(ans.Value)
	}
	if err != nil {
		return "encode error: " + err.Error(), false
	}
	return string(b), out.Cache == "hit"
}

func renderError(ee *engine.Error) string {
	return fmt.Sprintf("error %d %s: %s", ee.Status, ee.Code, ee.Message)
}

// batchAnswers runs the grid as one batch and renders each result as
// readAnswer renders a read, its value encoded afresh.
func batchAnswers(exec *engine.Executor, grid []gridRead) []string {
	items := make([]engine.BatchItem, len(grid))
	for i, r := range grid {
		params := make(map[string]string, len(r.values))
		for k := range r.values {
			params[k] = r.values.Get(k)
		}
		items[i] = engine.BatchItem{Analysis: r.name, Dataset: oracleDataset, Params: params}
	}
	results := exec.RunBatch(context.Background(), items)
	out := make([]string, len(results))
	for i, res := range results {
		if res.Error != nil {
			out[i] = renderError(res.Error)
			continue
		}
		b, err := serving.EncodeData(res.Data)
		if err != nil {
			out[i] = "encode error: " + err.Error()
			continue
		}
		out[i] = string(b)
	}
	return out
}

// eventGen draws steps against the current corpus: batches of
// classification events, and now and then a whole document to put.
// Each batch is simulated on a working copy of the touched courses'
// material lists, so every batch it returns applies.
type eventGen struct {
	rng   *rand.Rand
	vocab []string // every tag of the starting corpus, sorted
	added int      // materials added so far, for fresh IDs
	puts  int      // documents drawn so far, to cycle their kinds
	// kinds counts the events, special batches and documents
	// generated, by kind.
	kinds map[string]int
	// work is the batch being drawn: course ID → material list.
	work map[string][]*materials.Material
	ids  []string // course IDs in repository order
}

func newEventGen(seed int64, courses []*materials.Course) *eventGen {
	set := map[string]bool{}
	for _, c := range courses {
		for t := range c.TagSet() {
			set[t] = true
		}
	}
	vocab := make([]string, 0, len(set))
	for t := range set {
		vocab = append(vocab, t)
	}
	sort.Strings(vocab)
	return &eventGen{rng: rand.New(rand.NewSource(seed)), vocab: vocab, kinds: map[string]int{}}
}

// putKinds are the documents a step may put in place of a batch, drawn
// in turn: the corpus as it is, one course renamed (its ID toggles the
// renamed suffix), one course's tag set changed, one course moved to
// another group, and two courses swapped in order.
var putKinds = []string{"put-same", "put-rename", "put-retag", "put-regroup", "put-swap"}

// step draws the next step against repo: a document to put (about one
// step in six) or a batch of events to apply.
func (g *eventGen) step(repo *materials.Repository) (events []dataset.Event, doc []*materials.Course) {
	g.ids = g.ids[:0]
	for _, c := range repo.Courses() {
		g.ids = append(g.ids, c.ID)
	}
	if g.rng.Intn(6) > 0 {
		return g.batch(repo), nil
	}
	return nil, g.document(repo)
}

// document returns repo's courses as a document of the next put kind.
// It copies each course it changes, and the material it retags.
func (g *eventGen) document(repo *materials.Repository) []*materials.Course {
	kind := putKinds[g.puts%len(putKinds)]
	g.puts++
	g.kinds[kind]++
	doc := repo.Courses()
	i := g.rng.Intn(len(doc))
	c := doc[i].Clone()
	switch kind {
	case "put-rename":
		if id, ok := strings.CutSuffix(c.ID, renamed); ok {
			c.ID = id
		} else {
			c.ID += renamed
		}
	case "put-retag":
		for {
			j := g.rng.Intn(len(c.Materials))
			if tags, ok := g.changeTags(c.Materials, j); ok {
				m := c.Materials[j].Clone()
				m.Tags = tags
				c.Materials[j] = m
				break
			}
		}
	case "put-regroup":
		labels := []materials.CourseGroup{materials.GroupCS1, materials.GroupOOP, materials.GroupDS,
			materials.GroupAlgo, materials.GroupSoftEng, materials.GroupPDC, materials.GroupOther}
		for c.Group == doc[i].Group {
			c.Group = labels[g.rng.Intn(len(labels))]
		}
	case "put-swap":
		j := (i + 1 + g.rng.Intn(len(doc)-1)) % len(doc)
		doc[i], doc[j] = doc[j], c
		return doc
	}
	doc[i] = c
	return doc
}

// mats returns course id's working material list.
func (g *eventGen) mats(repo *materials.Repository, id string) []*materials.Material {
	if m, ok := g.work[id]; ok {
		return m
	}
	m := append([]*materials.Material(nil), repo.Course(id).Materials...)
	g.work[id] = m
	return m
}

// tagsOf is the union of the tags of ms, skipping index skip.
func tagsOf(ms []*materials.Material, skip int) map[string]bool {
	s := map[string]bool{}
	for i, m := range ms {
		if i == skip {
			continue
		}
		for _, t := range m.Tags {
			s[t] = true
		}
	}
	return s
}

func sortedTags(s map[string]bool) []string {
	out := make([]string, 0, len(s))
	for t := range s {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// retagEvent records a retag of course id's material i in the working
// copy and returns the event.
func (g *eventGen) retagEvent(id string, i int, tags []string) dataset.Event {
	ms := g.work[id]
	m := ms[i].Clone()
	m.Tags = append([]string(nil), tags...)
	ms[i] = m
	return dataset.Event{Op: dataset.OpRetag, Course: id, MaterialID: m.ID, Tags: append([]string(nil), tags...)}
}

// keepTags draws new tags for material i that leave the course's tag
// set unchanged: the tags only it covers, plus some the course has.
func (g *eventGen) keepTags(ms []*materials.Material, i int) []string {
	others := tagsOf(ms, i)
	next := map[string]bool{}
	pool := map[string]bool{}
	for t := range others {
		pool[t] = true
	}
	for _, t := range ms[i].Tags {
		pool[t] = true
		if !others[t] {
			next[t] = true
		}
	}
	sorted := sortedTags(pool)
	for n := g.rng.Intn(4); n > 0; n-- {
		next[sorted[g.rng.Intn(len(sorted))]] = true
	}
	if len(next) == 0 {
		next[sorted[g.rng.Intn(len(sorted))]] = true
	}
	return sortedTags(next)
}

// changeTags draws new tags for material i that change the course's
// tag set: one tag the course lacks is added, or (when the material
// has one) a tag only it covers is dropped.
func (g *eventGen) changeTags(ms []*materials.Material, i int) ([]string, bool) {
	all := tagsOf(ms, -1)
	others := tagsOf(ms, i)
	own := ms[i].TagSet()
	var only []string
	for _, t := range sortedTags(own) {
		if !others[t] {
			only = append(only, t)
		}
	}
	if len(only) > 0 && len(own) > 1 && g.rng.Intn(2) == 0 {
		delete(own, only[g.rng.Intn(len(only))])
		return sortedTags(own), true
	}
	var missing []string
	for _, t := range g.vocab {
		if !all[t] {
			missing = append(missing, t)
		}
	}
	if len(missing) == 0 {
		return nil, false
	}
	own[missing[g.rng.Intn(len(missing))]] = true
	return sortedTags(own), true
}

// randomTags draws 1-3 tags from the vocabulary.
func (g *eventGen) randomTags() []string {
	s := map[string]bool{}
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		s[g.vocab[g.rng.Intn(len(g.vocab))]] = true
	}
	return sortedTags(s)
}

// event draws one event of a random kind against the working copy.
func (g *eventGen) event(repo *materials.Repository) dataset.Event {
	for {
		id := g.ids[g.rng.Intn(len(g.ids))]
		ms := g.mats(repo, id)
		switch r := g.rng.Intn(100); {
		case r < 35 && len(ms) > 0:
			g.kinds["retag-keep"]++
			i := g.rng.Intn(len(ms))
			return g.retagEvent(id, i, g.keepTags(ms, i))
		case r < 65 && len(ms) > 0:
			i := g.rng.Intn(len(ms))
			tags, ok := g.changeTags(ms, i)
			if !ok {
				continue
			}
			g.kinds["retag-change"]++
			return g.retagEvent(id, i, tags)
		case r < 85:
			g.kinds["add"]++
			g.added++
			tags := g.randomTags()
			if len(ms) > 0 && g.rng.Intn(2) == 0 {
				tags = g.keepTags(append(ms, &materials.Material{}), len(ms))
			}
			m := &materials.Material{
				ID: fmt.Sprintf("%s/oracle-%d", id, g.added), Title: "oracle material",
				Type: materials.Lecture, Tags: tags,
			}
			g.work[id] = append(ms, m)
			return dataset.Event{Op: dataset.OpAdd, Course: id, Material: m.Clone()}
		case len(ms) > 2:
			g.kinds["remove"]++
			i := g.rng.Intn(len(ms))
			ev := dataset.Event{Op: dataset.OpRemove, Course: id, MaterialID: ms[i].ID}
			g.work[id] = append(ms[:i:i], ms[i+1:]...)
			return ev
		}
	}
}

// batch draws the next batch against repo: usually 1-3 random events,
// sometimes a retag and its exact undo (the course is touched but its
// tag set cancels out), sometimes a remove and an add of the same
// material ID (moved within or across courses, or re-added as is).
func (g *eventGen) batch(repo *materials.Repository) []dataset.Event {
	g.work = map[string][]*materials.Material{}
	var evs []dataset.Event
	switch r := g.rng.Intn(100); {
	case r < 15:
		g.kinds["cancelling-retags"]++
		id := g.ids[g.rng.Intn(len(g.ids))]
		ms := g.mats(repo, id)
		i := g.rng.Intn(len(ms))
		orig := append([]string(nil), ms[i].Tags...)
		evs = append(evs, g.retagEvent(id, i, g.randomTags()), g.retagEvent(id, i, orig))
	case r < 30:
		g.kinds["remove-add-same-id"]++
		from := g.ids[g.rng.Intn(len(g.ids))]
		to := g.ids[g.rng.Intn(len(g.ids))]
		ms := g.mats(repo, from)
		i := g.rng.Intn(len(ms))
		m := ms[i].Clone()
		evs = append(evs, dataset.Event{Op: dataset.OpRemove, Course: from, MaterialID: m.ID})
		g.work[from] = append(ms[:i:i], ms[i+1:]...)
		if g.rng.Intn(2) == 0 {
			m.Tags = g.randomTags()
		}
		g.work[to] = append(g.mats(repo, to), m)
		evs = append(evs, dataset.Event{Op: dataset.OpAdd, Course: to, Material: m.Clone()})
	case r < 40:
		g.kinds["add-remove-same-id"]++
		id := g.ids[g.rng.Intn(len(g.ids))]
		g.added++
		m := &materials.Material{
			ID: fmt.Sprintf("%s/oracle-%d", id, g.added), Title: "oracle material",
			Type: materials.Lab, Tags: g.randomTags(),
		}
		evs = append(evs,
			dataset.Event{Op: dataset.OpAdd, Course: id, Material: m},
			dataset.Event{Op: dataset.OpRemove, Course: id, MaterialID: m.ID})
	}
	for n := 1 + g.rng.Intn(3); n > 0 || len(evs) == 0; n-- {
		evs = append(evs, g.event(repo))
	}
	return evs
}

// oracleRun summarizes what one oracle run exercised.
type oracleRun struct {
	steps, puts, reads int
	// kept counts the answers a refresh left held: those held before
	// it less those it dropped.
	kept, dropped int
	changed       int
	evicted       uint64
}

// runDeltaOracle ingests courses, then takes `steps` generated steps,
// comparing the executor built over reg with a cold executor after
// each. It returns the first mismatch. A capacity of 0 lets the
// executor under test hold every answer of the grid; a positive one
// builds it as the server does, with default breakers and the cache
// partitioned across the registry's datasets.
func runDeltaOracle(t testing.TB, reg *engine.Registry, courses []*materials.Course, seed int64, steps, capacity int) (oracleRun, error) {
	t.Helper()
	var run oracleRun
	datasets := dataset.NewRegistry(nil)
	snap, err := datasets.Put(oracleDataset, courses)
	if err != nil {
		t.Fatal(err)
	}
	cache := serving.NewCache(1024)
	var breakers *resilience.BreakerSet
	if capacity > 0 {
		cache = serving.NewCache(capacity)
		cache.Partition(datasets.IDs(), nil)
		breakers = resilience.NewBreakerSet(resilience.DefaultBreakerThreshold, resilience.DefaultBreakerCooldown)
	}
	exec := engine.NewExecutor(reg, engine.ExecutorOptions{Datasets: datasets, Cache: cache, Breakers: breakers})
	coldReg, err := analyses.Default()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(courses))
	for _, c := range courses {
		ids = append(ids, c.ID)
	}
	grid := oracleGrid(t, reg, ids)
	gen := newEventGen(seed, courses)

	for step := 0; step <= steps; step++ {
		if step > 0 {
			events, doc := gen.step(snap.Repo())
			var next *dataset.Snapshot
			if doc != nil {
				next, err = datasets.Put(oracleDataset, doc)
				run.puts++
			} else {
				next, err = datasets.Apply(oracleDataset, events)
			}
			if err != nil {
				t.Fatalf("step %d: generated step does not apply: %v", step, err)
			}
			snap = next
			held := cache.Stats().Size
			out := exec.ApplyDelta(context.Background(), oracleDataset, snap)
			run.kept += held - out.Invalidated
			run.dropped += out.Invalidated
			if d := snap.Delta(); d != nil {
				run.changed += len(d.TagChanges)
			}
			run.steps++
		}
		cold := engine.NewExecutor(coldReg, engine.ExecutorOptions{Datasets: datasets, Cache: serving.NewCache(1024)})
		wants := make([]string, len(grid))
		for i, r := range grid {
			got, _ := readAnswer(exec, r, true)
			want, _ := readAnswer(cold, r, false)
			run.reads++
			if got != want {
				return run, fmt.Errorf("step %d (revision %d), %s:\n got  %.300s\n want %.300s",
					step, snap.Revision(), r, got, want)
			}
			wants[i] = want
		}
		for i, got := range batchAnswers(exec, grid) {
			if got != wants[i] {
				return run, fmt.Errorf("step %d (revision %d), batch item %d, %s:\n got  %.300s\n want %.300s",
					step, snap.Revision(), i, grid[i], got, wants[i])
			}
		}
	}
	run.evicted = cache.Stats().Evictions
	return run, nil
}

// TestDeltaOracle runs the oracle over generated steps: many on a
// small corpus that covers every group, a few on the seed corpus, and
// a bounded run on the small corpus whose cache holds fewer answers
// than the grid reads, so reads evict and a refresh sweeps a partly
// evicted scope.
func TestDeltaOracle(t *testing.T) {
	for _, tc := range []struct {
		name     string
		courses  []*materials.Course
		seed     int64
		steps    int
		capacity int
	}{
		{"small corpus", smallCorpus(t), 1801, 40, 0},
		{"seed corpus", dataset.Courses(), 1802, 4, 0},
		// Two datasets share 48 answers: the oracle's budget is 24, below
		// the grid's 117 reads.
		{"small corpus, bounded cache", smallCorpus(t), 1803, 20, 48},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, err := analyses.Default()
			if err != nil {
				t.Fatal(err)
			}
			run, err := runDeltaOracle(t, reg, tc.courses, tc.seed, tc.steps, tc.capacity)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d steps (%d puts), %d reads: %d answers kept, %d dropped, %d tag-set changes, %d evictions",
				run.steps, run.puts, run.reads, run.kept, run.dropped, run.changed, run.evicted)
			// The oracle proves nothing unless refreshes both kept and
			// dropped answers, and some course's tag set changed; a
			// bounded run also proves nothing unless reads evicted.
			if run.kept == 0 || run.dropped == 0 || run.changed == 0 || (tc.capacity > 0 && run.evicted == 0) {
				t.Fatalf("vacuous run: %+v", run)
			}
		})
	}
}

// TestDeltaOracleGeneratorCoverage: the small-corpus run draws every
// event kind, every special batch and every kind of document.
func TestDeltaOracleGeneratorCoverage(t *testing.T) {
	courses := smallCorpus(t)
	datasets := dataset.NewRegistry(nil)
	snap, err := datasets.Put(oracleDataset, courses)
	if err != nil {
		t.Fatal(err)
	}
	gen := newEventGen(1801, courses)
	for step := 0; step < 40; step++ {
		events, doc := gen.step(snap.Repo())
		if doc != nil {
			snap, err = datasets.Put(oracleDataset, doc)
		} else {
			snap, err = datasets.Apply(oracleDataset, events)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	kinds := append([]string{"retag-keep", "retag-change", "add", "remove",
		"cancelling-retags", "remove-add-same-id", "add-remove-same-id"}, putKinds...)
	for _, kind := range kinds {
		if gen.kinds[kind] == 0 {
			t.Errorf("40 steps drew no %s", kind)
		}
	}
}

// noScope wraps a real analysis with a Scope that declares no course,
// so its keys never change and every answer it holds outlives its
// input.
type noScope struct{ engine.Analysis }

func (noScope) Scope(engine.Params) materials.Scope { return materials.Scope{} }

// TestDeltaOracleCatchesUnderReporting is the oracle's mutation check:
// with any one analysis that reads the dataset swapped for a copy that
// declares no scope, the small-corpus run must fail.
func TestDeltaOracleCatchesUnderReporting(t *testing.T) {
	for _, name := range []string{"agreement", "types", "cluster", "anchors", "audit", "pdcmaterials"} {
		t.Run(name, func(t *testing.T) {
			reg, err := analyses.Default()
			if err != nil {
				t.Fatal(err)
			}
			a, _ := reg.Get(name)
			reg.Replace(noScope{a})
			if _, err := runDeltaOracle(t, reg, smallCorpus(t), 1801, 40, 0); err == nil {
				t.Fatalf("the oracle passed with %s declaring no scope", name)
			} else {
				t.Logf("caught: %v", err)
			}
		})
	}
}
