// Package faultinject is a deterministic chaos harness: an Injector
// holds rules that add latency, return errors, or panic on matching
// routes or compute labels, with per-rule probabilities drawn from a
// seeded RNG so a given seed always injects the same fault sequence.
//
// Tests and examples use it to prove the resilience ladder engages:
// hold a request to overload the shedder, and fail a compute path until
// its breaker opens.
package faultinject

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Rule describes one fault. A request or compute call matches when its
// label (the URL path for HTTP middleware, the caller-chosen label for
// compute hooks) has Match as a prefix; an empty Match matches
// everything. Probability gates the rule per call: 1 always fires,
// 0 never (a disabled rule). The first matching rule that fires wins.
//
// Fault actions, applied in order when the rule fires: block until
// Hold is closed (deterministic latency for tests), sleep Latency,
// panic when Panic is set, and finally fail with Status when nonzero
// (an HTTP error response from the middleware, an error value from
// ComputeError).
type Rule struct {
	Match       string
	Probability float64
	Hold        <-chan struct{}
	Latency     time.Duration
	Panic       bool
	Status      int
	Code        string // error code in the response envelope; default "fault_injected"
}

// Stats counts the faults an Injector has injected.
type Stats struct {
	Matched  uint64 `json:"matched_total"`
	Held     uint64 `json:"held_total"`
	Delayed  uint64 `json:"delayed_total"`
	Panicked uint64 `json:"panicked_total"`
	Errored  uint64 `json:"errored_total"`
}

// Injector evaluates rules under a seeded RNG. The zero value is not
// usable; use New. A nil *Injector is inert: every method is a no-op,
// so callers can wire it unconditionally.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []Rule
	stats Stats
}

// New returns an injector whose probabilistic decisions replay
// identically for the same seed and call sequence.
func New(seed int64, rules ...Rule) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), rules: rules}
}

// SetRules atomically replaces the rule set (tests switch fault phases
// with this); the RNG stream continues where it left off.
func (in *Injector) SetRules(rules ...Rule) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.rules = append([]Rule(nil), rules...)
	in.mu.Unlock()
}

// Stats snapshots the injection counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// pick returns a copy of the first matching rule that fires for label.
func (in *Injector) pick(label string) (Rule, bool) {
	if in == nil {
		return Rule{}, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if !strings.HasPrefix(label, r.Match) {
			continue
		}
		if r.Probability < 1 && in.rng.Float64() >= r.Probability {
			continue
		}
		in.stats.Matched++
		return r, true
	}
	return Rule{}, false
}

// delay applies the rule's Hold and Latency actions.
func (in *Injector) delay(r Rule) {
	if r.Hold != nil {
		<-r.Hold
		in.count(func(s *Stats) { s.Held++ })
	}
	if r.Latency > 0 {
		time.Sleep(r.Latency)
		in.count(func(s *Stats) { s.Delayed++ })
	}
}

func (in *Injector) count(f func(*Stats)) {
	in.mu.Lock()
	f(&in.stats)
	in.mu.Unlock()
}

func (r Rule) code() string {
	if r.Code == "" {
		return "fault_injected"
	}
	return r.Code
}

// Middleware wraps next with fault injection keyed by URL path. An
// injected Status short-circuits with the API's JSON error envelope;
// an injected panic propagates to the recovery middleware above.
func (in *Injector) Middleware(next http.Handler) http.Handler {
	if in == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r, ok := in.pick(req.URL.Path)
		if !ok {
			next.ServeHTTP(w, req)
			return
		}
		in.delay(r)
		if r.Panic {
			in.count(func(s *Stats) { s.Panicked++ })
			panic(fmt.Sprintf("faultinject: injected panic on %s", req.URL.Path))
		}
		if r.Status != 0 {
			in.count(func(s *Stats) { s.Errored++ })
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(r.Status)
			_, _ = fmt.Fprintf(w, "{\n  \"error\": {\n    \"code\": %q,\n    \"message\": %q\n  }\n}\n",
				r.code(), fmt.Sprintf("injected fault on %s", req.URL.Path))
			return
		}
		next.ServeHTTP(w, req)
	})
}

// ComputeError evaluates the rules against a compute label (the server
// uses "compute/<analysis>") and returns the injected failure, or nil.
// Hold/Latency apply before the error; Panic panics.
func (in *Injector) ComputeError(label string) error {
	r, ok := in.pick(label)
	if !ok {
		return nil
	}
	in.delay(r)
	if r.Panic {
		in.count(func(s *Stats) { s.Panicked++ })
		panic(fmt.Sprintf("faultinject: injected panic on %s", label))
	}
	if r.Status != 0 {
		in.count(func(s *Stats) { s.Errored++ })
		return fmt.Errorf("faultinject: injected %s (status %d) on %s", r.code(), r.Status, label)
	}
	return nil
}
