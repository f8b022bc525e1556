package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"csmaterials/internal/fleet"
)

// The multi-replica end-to-end suite: three full servers wired into one
// fleet over real loopback HTTP, exercised through the same handlers a
// production replica serves. These tests are the proof obligations of
// docs/cluster.md — ownership routing gives cluster-wide cache reuse,
// distributed batches are byte-identical to single-node ones, ingest
// invalidations sweep every replica, and drains/ring splits degrade to
// local compute instead of failing.

// newFleetCluster builds one in-process replica per ID, all members of
// the same fleet. The fleet config needs every peer's URL before the
// servers exist, so each httptest server late-binds its handler through
// an atomic slot.
func newFleetCluster(t testing.TB, ids []string) (map[string]*Server, map[string]*httptest.Server) {
	t.Helper()
	slots := make([]atomic.Value, len(ids))
	tss := make(map[string]*httptest.Server, len(ids))
	peers := make([]fleet.Peer, 0, len(ids))
	for i, id := range ids {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h, _ := slots[i].Load().(http.Handler)
			if h == nil {
				http.Error(w, "replica not ready", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		tss[id] = ts
		peers = append(peers, fleet.Peer{ID: id, URL: ts.URL})
	}
	servers := make(map[string]*Server, len(ids))
	for i, id := range ids {
		fl, err := fleet.New(fleet.Config{Self: id, Peers: peers}, fleet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewWithOptions(Options{Fleet: fl, disableWarmup: true})
		if err != nil {
			t.Fatal(err)
		}
		servers[id] = s
		slots[i].Store(http.Handler(s))
	}
	return servers, tss
}

// agreementPathOwnedBy probes agreement thresholds until the ownership
// key lands on the wanted node; every replica computes the same owner,
// so probing any one of them stands for all.
func agreementPathOwnedBy(t testing.TB, s *Server, owner string) string {
	t.Helper()
	for th := 1; th < 100; th++ {
		v := url.Values{"group": {"cs1"}, "threshold": {strconv.Itoa(th)}}
		key, err := s.exec.FleetKeyOn("default", "agreement", v)
		if err != nil {
			t.Fatal(err)
		}
		if s.fleet.Owner(key) == owner {
			return "/api/v1/agreement?group=cs1&threshold=" + strconv.Itoa(th)
		}
	}
	t.Fatalf("no agreement threshold in 1..99 is owned by %s", owner)
	return ""
}

// TestFleetForwardSharedCache is the core ownership-routing claim: a
// request hitting a non-owner replica is forwarded, the owner computes
// and caches it, and a later request through ANY replica is a warm hit
// on that one cache entry — exactly one compute fleet-wide.
func TestFleetForwardSharedCache(t *testing.T) {
	servers, tss := newFleetCluster(t, []string{"a", "b", "c"})
	owner := "c"
	path := agreementPathOwnedBy(t, servers["a"], owner)

	e := getEnvelope(t, tss["a"], path, 200)
	if e.Meta.Cache != "miss" {
		t.Fatalf("first request cache = %q, want miss (owner computes)", e.Meta.Cache)
	}
	resp, _ := get(t, tss["a"], path)
	if got := resp.Header.Get(fleet.OwnerHeader); got != owner {
		t.Fatalf("X-CSM-Owner = %q, want %q", got, owner)
	}

	// Second distinct replica: forwarded to the same owner, warm hit.
	e = getEnvelope(t, tss["b"], path, 200)
	if e.Meta.Cache != "hit" {
		t.Fatalf("cross-replica cache = %q, want hit from the owner's cache", e.Meta.Cache)
	}
	// The owner itself serves locally from the same entry.
	e = getEnvelope(t, tss[owner], path, 200)
	if e.Meta.Cache != "hit" {
		t.Fatalf("owner-local cache = %q, want hit", e.Meta.Cache)
	}

	st := servers[owner].Fleet().Stats()
	if st.OwnerComputes < 2 {
		t.Errorf("owner computes = %d, want >= 2 forwarded serves", st.OwnerComputes)
	}
	if sa := servers["a"].Fleet().Stats(); sa.Forwards[owner] == 0 {
		t.Errorf("replica a recorded no forwards to %s: %+v", owner, sa.Forwards)
	}
	if sa := servers["a"].Fleet().Stats(); sa.LocalFallbacks != 0 {
		t.Errorf("local fallbacks on a = %d, want 0 on a healthy fleet", sa.LocalFallbacks)
	}
}

// TestFleetRelayCarriesContentLength: a replica relaying an owner's
// answer passes on the owner's Content-Length, so a body past
// net/http's 2,048-byte buffer is not re-sent chunked.
func TestFleetRelayCarriesContentLength(t *testing.T) {
	servers, tss := newFleetCluster(t, []string{"a", "b", "c"})
	path := ""
	for k := 1; k <= 20 && path == ""; k++ {
		v := url.Values{"group": {"all"}, "k": {strconv.Itoa(k)}}
		key, err := servers["a"].exec.FleetKeyOn("default", "cluster", v)
		if err != nil {
			t.Fatal(err)
		}
		if servers["a"].fleet.Owner(key) == "c" {
			path = "/api/v1/cluster?" + v.Encode()
		}
	}
	if path == "" {
		t.Fatal("no cluster k in 1..20 is owned by c")
	}
	for i := 0; i < 2; i++ { // the owner's miss, then its hit
		resp, body := get(t, tss["a"], path)
		if resp.StatusCode != http.StatusOK || resp.Header.Get(fleet.OwnerHeader) != "c" {
			t.Fatalf("GET %s via a: status %d, owner %q", path, resp.StatusCode, resp.Header.Get(fleet.OwnerHeader))
		}
		if len(body) <= 2048 {
			t.Fatalf("GET %s: a %d-byte body fits net/http's buffer, so it shows nothing", path, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("GET %s via a (read %d): Content-Length %d, Transfer-Encoding %v; want %d and none",
				path, i+1, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// TestFleetDistributedBatchByteIdentical: the same batch, once through
// a fleet replica (fanned out by owner) and once through a standalone
// no-fleet server, yields byte-for-byte identical response bodies —
// including per-item error envelopes and input ordering.
func TestFleetDistributedBatchByteIdentical(t *testing.T) {
	servers, tss := newFleetCluster(t, []string{"a", "b", "c"})
	solo, err := NewWithOptions(Options{disableWarmup: true})
	if err != nil {
		t.Fatal(err)
	}
	soloTS := httptest.NewServer(solo)
	t.Cleanup(soloTS.Close)

	var items []string
	for k := 2; k <= 7; k++ {
		items = append(items, fmt.Sprintf(`{"analysis": "types", "params": {"group": "cs1", "k": "%d"}}`, k))
		items = append(items, fmt.Sprintf(`{"analysis": "agreement", "params": {"group": "ds", "threshold": "%d"}}`, k))
	}
	items = append(items,
		`{"analysis": "bogus"}`,
		`{"analysis": "types", "params": {"k": "banana"}}`,
	)
	body := `{"items": [` + strings.Join(items, ",") + `]}`

	resp, fleetRaw := postBatch(t, tss["a"], body)
	if resp.StatusCode != 200 {
		t.Fatalf("fleet batch status %d\n%s", resp.StatusCode, fleetRaw)
	}
	resp, soloRaw := postBatch(t, soloTS, body)
	if resp.StatusCode != 200 {
		t.Fatalf("solo batch status %d\n%s", resp.StatusCode, soloRaw)
	}
	if string(fleetRaw) != string(soloRaw) {
		t.Fatalf("distributed batch diverges from single-node bytes:\nfleet: %s\nsolo:  %s", fleetRaw, soloRaw)
	}
	if st := servers["a"].Fleet().Stats(); st.BatchFanouts == 0 {
		t.Error("batch was not partitioned across the fleet")
	}

	// With >= 12 spread-out keys, at least one sub-batch must have left
	// replica a — otherwise the test proves nothing about forwarding.
	total := uint64(0)
	for _, n := range servers["a"].Fleet().Stats().BatchForwards {
		total += n
	}
	if total == 0 {
		t.Fatal("no sub-batch was forwarded; every key landed on replica a")
	}

	// Replay through a different replica: every good item is now a warm
	// hit on its owner — batches fill the same cluster-wide cache.
	_, raw := postBatch(t, tss["b"], body)
	var e batchEnv
	decode(t, raw, &e)
	for i, r := range e.Data {
		if r.Error == nil && r.Cache != "hit" {
			t.Errorf("replayed item %d cache = %q, want cluster-wide hit", i, r.Cache)
		}
	}
}

// TestFleetDrainFallback: a draining owner refuses forwarded computes
// with 503 node_draining and the origin degrades to local compute — the
// client sees 200 throughout, including under concurrent load while the
// drain latches.
func TestFleetDrainFallback(t *testing.T) {
	servers, tss := newFleetCluster(t, []string{"a", "b", "c"})
	owner := "b"
	path := agreementPathOwnedBy(t, servers["a"], owner)

	servers[owner].StartDraining()

	e := getEnvelope(t, tss["a"], path, 200)
	if e.Meta.Cache != "miss" {
		t.Fatalf("fallback cache = %q, want local miss", e.Meta.Cache)
	}
	if st := servers[owner].Fleet().Stats(); st.DrainRefused == 0 {
		t.Error("draining owner refused nothing")
	}
	if st := servers["a"].Fleet().Stats(); st.LocalFallbacks == 0 {
		t.Error("origin recorded no local fallback")
	}

	// The draining replica leaves rotation but keeps answering direct
	// traffic.
	resp, body := get(t, tss[owner], "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), `"draining"`) {
		t.Errorf("draining /readyz = %d %s, want 503 draining", resp.StatusCode, body)
	}
	if e := getEnvelope(t, tss[owner], path, 200); e.Meta.Cache == "" {
		t.Error("draining replica stopped serving direct traffic")
	}

	// Drain under load: another owner latches mid-flight; every request
	// through a still answers 200.
	owner2 := "c"
	paths := make([]string, 0, 8)
	for th := 1; len(paths) < 8 && th < 100; th++ {
		p := "/api/v1/agreement?group=ds&threshold=" + strconv.Itoa(th)
		v := url.Values{"group": {"ds"}, "threshold": {strconv.Itoa(th)}}
		key, err := servers["a"].exec.FleetKeyOn("default", "agreement", v)
		if err != nil {
			t.Fatal(err)
		}
		if servers["a"].fleet.Owner(key) == owner2 {
			paths = append(paths, p)
		}
	}
	var wg sync.WaitGroup
	for i, p := range paths {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			if i == len(paths)/2 {
				servers[owner2].StartDraining()
			}
			resp, body := get(t, tss["a"], p)
			if resp.StatusCode != 200 {
				t.Errorf("GET %s during drain: %d\n%s", p, resp.StatusCode, body)
			}
		}(i, p)
	}
	wg.Wait()
}

// TestFleetRingVersionMismatch: a replica started with a divergent
// membership refuses forwarded computes with 421 not_owner instead of
// serving keys it may not own, and the origin falls back locally.
func TestFleetRingVersionMismatch(t *testing.T) {
	slots := make([]atomic.Value, 2)
	var tss []*httptest.Server
	for i := range slots {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h, _ := slots[i].Load().(http.Handler)
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		tss = append(tss, ts)
	}
	peersA := []fleet.Peer{{ID: "a", URL: tss[0].URL}, {ID: "b", URL: tss[1].URL}}
	// b was (mis)started with a third member a does not know about.
	peersB := append([]fleet.Peer{{ID: "ghost", URL: "http://127.0.0.1:1"}}, peersA...)
	newReplica := func(self string, peers []fleet.Peer, slot int) *Server {
		fl, err := fleet.New(fleet.Config{Self: self, Peers: peers}, fleet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewWithOptions(Options{Fleet: fl, disableWarmup: true})
		if err != nil {
			t.Fatal(err)
		}
		slots[slot].Store(http.Handler(s))
		return s
	}
	a := newReplica("a", peersA, 0)
	b := newReplica("b", peersB, 1)
	if a.fleet.RingVersion() == b.fleet.RingVersion() {
		t.Fatal("test setup broken: rings agree")
	}

	path := agreementPathOwnedBy(t, a, "b")
	tsA := httptest.NewServer(a) // direct front door to a
	t.Cleanup(tsA.Close)
	e := getEnvelope(t, tsA, path, 200)
	if e.Meta.Cache != "miss" {
		t.Fatalf("split-ring fallback cache = %q, want local miss", e.Meta.Cache)
	}
	if st := b.Fleet().Stats(); st.NotOwner == 0 {
		t.Error("divergent owner never refused with not_owner")
	}
	if st := a.Fleet().Stats(); st.LocalFallbacks == 0 {
		t.Error("origin recorded no local fallback after 421")
	}
}

// TestFleetLoopGuard: a request already carrying the forwarded header
// is never re-forwarded, even when this replica disagrees that it owns
// the key — one hop is the hard ceiling.
func TestFleetLoopGuard(t *testing.T) {
	servers, tss := newFleetCluster(t, []string{"a", "b", "c"})
	path := agreementPathOwnedBy(t, servers["a"], "b") // owned by b, asked of a

	req, err := http.NewRequest(http.MethodGet, tss["a"].URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(fleet.ForwardedHeader, "c")
	req.Header.Set(fleet.RingVersionHeader, servers["a"].fleet.RingVersion())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("forwarded-but-not-owner status = %d, want 200 local compute", resp.StatusCode)
	}
	st := servers["a"].Fleet().Stats()
	if st.LoopsPrevented != 1 {
		t.Errorf("loops prevented = %d, want 1", st.LoopsPrevented)
	}
	if len(st.Forwards) != 0 {
		t.Errorf("replica a re-forwarded a forwarded request: %+v", st.Forwards)
	}
}

// TestFleetEndpointAndMetrics: GET /api/v1/fleet reports membership and
// counters from any replica, the csm_fleet_* families are exposed with
// one sample per peer, and a single-process server exposes none of them
// (the legacy exposition is preserved byte-for-byte).
func TestFleetEndpointAndMetrics(t *testing.T) {
	servers, tss := newFleetCluster(t, []string{"a", "b", "c"})
	path := agreementPathOwnedBy(t, servers["a"], "b")
	getEnvelope(t, tss["a"], path, 200) // one forward to give counters a pulse

	var info struct {
		Data FleetInfo `json:"data"`
	}
	_, raw := get(t, tss["a"], "/api/v1/fleet")
	decode(t, raw, &info)
	if info.Data.Self != "a" || len(info.Data.Peers) != 3 || info.Data.RingVersion == "" {
		t.Fatalf("fleet info = %+v", info.Data)
	}
	if info.Data.Stats.Forwards["b"] == 0 {
		t.Errorf("fleet info counters missing the forward: %+v", info.Data.Stats)
	}

	_, prom := get(t, tss["a"], "/metrics")
	for _, want := range []string{
		"csm_fleet_peers 3",
		`csm_fleet_forwards_total{peer="b"}`,
		`csm_fleet_forwards_total{peer="c"}`,
		"csm_fleet_owner_computes_total",
		"csm_fleet_ring_version",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	solo, err := NewWithOptions(Options{disableWarmup: true})
	if err != nil {
		t.Fatal(err)
	}
	soloTS := httptest.NewServer(solo)
	t.Cleanup(soloTS.Close)
	_, prom = get(t, soloTS, "/metrics")
	if strings.Contains(string(prom), "csm_fleet_") {
		t.Error("single-process /metrics leaks csm_fleet_* families")
	}
	resp, _ := get(t, soloTS, "/api/v1/fleet")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("single-process GET /api/v1/fleet = %d, want 404", resp.StatusCode)
	}
}
