package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/materials"
)

// Inputs are made from the seed alone: tenants and corpora before the
// server starts, op inputs block by block as the timed phase needs
// them, outside any op's timing. The seed picks instances (tenant
// names, which materials each corpus keeps, which courses and tags are
// read or edited); the shape of a corpus, the route shares and the
// edit classes are fixed, so every seed drives the same kind of
// traffic.

// dropShare is the share of each course's materials a tenant corpus
// leaves out. Every corpus therefore has the seed corpus's 20 courses
// and groups, with about 900 of its 1003 materials.
const dropShare = 0.1

// groups are the paper's course groups, the analysis parameter the
// group-scoped routes take.
var groups = []string{"all", "cs1", "ds", "dsalgo", "pdc"}

// clusterK is the default k of the cluster route; a group is clustered
// only when it has at least that many courses.
const clusterK = 4

// query is one analysis call: a registered name and its parameters, the
// same pair a GET route and a batch item carry.
type query struct {
	analysis string
	params   [][2]string
}

// path is the query's route on dataset ds: the un-scoped alias for the
// default dataset, the dataset-scoped route otherwise.
func (q query) path(ds string) string {
	prefix := "/api/v1/datasets/" + ds + "/"
	if ds == dataset.DefaultID {
		prefix = "/api/v1/"
	}
	return prefix + q.analysis + "?" + q.values().Encode()
}

func (q query) values() url.Values {
	v := url.Values{}
	for _, p := range q.params {
		v.Set(p[0], p[1])
	}
	return v
}

func (q query) batchItem(ds string) engine.BatchItem {
	it := engine.BatchItem{Analysis: q.analysis, Dataset: ds, Params: map[string]string{}}
	for _, p := range q.params {
		it.Params[p[0]] = p[1]
	}
	return it
}

// tenantName draws a fixed-width tenant ID, so names never change the
// size of a response.
func tenantName(rng *rand.Rand, prefix string) string {
	return fmt.Sprintf("%s%06d", prefix, rng.Intn(1000000))
}

// tenantCorpus derives one corpus from the seed corpus: every course,
// each keeping all but a seeded dropShare of its materials.
func tenantCorpus(rng *rand.Rand) []*materials.Course {
	base := dataset.Courses()
	out := make([]*materials.Course, len(base))
	for i, c := range base {
		cp := *c
		n := len(c.Materials)
		drop := map[int]bool{}
		for _, j := range rng.Perm(n)[:int(float64(n)*dropShare)] {
			drop[j] = true
		}
		cp.Materials = make([]*materials.Material, 0, n-len(drop))
		for j, m := range c.Materials {
			if !drop[j] {
				cp.Materials = append(cp.Materials, m.Clone())
			}
		}
		out[i] = &cp
	}
	return out
}

func encodeDoc(courses []*materials.Course) []byte {
	b, err := json.Marshal(dataset.Document{Courses: courses})
	if err != nil {
		panic(err) // plain structs of strings always encode
	}
	return b
}

// paperSet is the paper's analysis set over a corpus: course types and
// tag agreement for each group, and clustering for each group with at
// least clusterK courses.
func paperSet(courses []*materials.Course) []query {
	size := map[string]int{}
	for _, c := range courses {
		size["all"]++
		for _, g := range []string{"cs1", "ds", "pdc"} {
			if c.HasGroup(materials.CourseGroup(strings.ToUpper(g))) {
				size[g]++
			}
		}
		if c.HasGroup(materials.GroupDS) || c.HasGroup(materials.GroupAlgo) {
			size["dsalgo"]++
		}
	}
	var qs []query
	for _, g := range groups {
		qs = append(qs, query{"types", [][2]string{{"group", g}}})
		qs = append(qs, query{"agreement", [][2]string{{"group", g}}})
		if size[g] >= clusterK {
			qs = append(qs, query{"cluster", [][2]string{{"group", g}}})
		}
	}
	return qs
}

func batchBody(ds string, qs []query) []byte {
	items := make([]engine.BatchItem, len(qs))
	for i, q := range qs {
		items[i] = q.batchItem(ds)
	}
	b, err := json.Marshal(struct {
		Items []engine.BatchItem `json:"items"`
	}{items})
	if err != nil {
		panic(err)
	}
	return b
}

// otherTags is the tag set of c's materials other than skip.
func otherTags(c *materials.Course, skip string) map[string]bool {
	s := map[string]bool{}
	for _, m := range c.Materials {
		if m.ID != skip {
			for _, t := range m.Tags {
				s[t] = true
			}
		}
	}
	return s
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func sortedSet(s map[string]bool) []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// editClass is the kind of re-classification an edit makes.
type editClass int

const (
	// keepTags retags a material within its course's own tags, so the
	// course's tag set is unchanged.
	keepTags editClass = iota
	// changeTags adds to a material a tag its course does not have, or
	// removes one no other material of the course has, so the course's
	// tag set changes.
	changeTags
)

func (c editClass) String() string {
	if c == keepTags {
		return "same"
	}
	return "changed"
}

// retag draws one retag event of class cls on a seeded material of
// course c, and checks that it keeps or changes the course's tag set as
// the class says. vocab is the pool of tags a changeTags edit may add.
func retag(rng *rand.Rand, c *materials.Course, cls editClass, vocab []string) (dataset.Event, error) {
	for attempt := 0; attempt < 200; attempt++ {
		m := c.Materials[rng.Intn(len(c.Materials))]
		own := m.TagSet()
		others := otherTags(c, m.ID)
		var cand []string // tags whose addition or removal fits the class
		add := rng.Intn(2) == 0
		switch {
		case cls == keepTags && add:
			for t := range others {
				if !own[t] {
					cand = append(cand, t)
				}
			}
		case cls == keepTags:
			for t := range own {
				if others[t] && len(own) > 1 {
					cand = append(cand, t)
				}
			}
		case add:
			all := c.TagSet()
			for _, t := range vocab {
				if !all[t] {
					cand = append(cand, t)
				}
			}
		default:
			for t := range own {
				if !others[t] && len(own) > 1 {
					cand = append(cand, t)
				}
			}
		}
		if len(cand) == 0 {
			continue
		}
		sort.Strings(cand)
		t := cand[rng.Intn(len(cand))]
		next := map[string]bool{}
		for k := range own {
			next[k] = true
		}
		if add {
			next[t] = true
		} else {
			delete(next, t)
		}
		after := map[string]bool{}
		for k := range others {
			after[k] = true
		}
		for k := range next {
			after[k] = true
		}
		if sameSet(c.TagSet(), after) != (cls == keepTags) {
			return dataset.Event{}, fmt.Errorf("edit on %s/%s does not match class %s", c.ID, m.ID, cls)
		}
		return dataset.Event{Op: dataset.OpRetag, Course: c.ID, MaterialID: m.ID, Tags: sortedSet(next)}, nil
	}
	return dataset.Event{}, fmt.Errorf("no %s edit found on %s", cls, c.ID)
}
