package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/fleet"
	"csmaterials/internal/obs"
)

// Fleet routing. When Options.Fleet is set, every analysis request is
// resolved to its owning replica on the consistent-hash ring before it
// touches the local serving ladder:
//
//   - we own the key           → serve locally (the normal ladder)
//   - a peer owns it           → forward one hop, relay the response
//   - the forward fails        → compute locally (degrade, don't fail)
//   - the request WAS a hop    → serve as owner; never re-forward
//
// Ownership is cache locality: with every replica agreeing on the
// owner, a key's cache entry and singleflight group live on exactly
// one node, so the owner's per-key dedup is cluster-wide dedup. The
// fallback arm means a broken fleet only costs that dedup — each
// replica still serves everything from its own ladder.

// fleetAnalysis applies ownership routing to one analysis request.
// It reports true when it wrote the response (forwarded and relayed,
// served as owner, or refused a misrouted/draining hop); false means
// the caller should run the normal local path — either this replica
// owns the key, or the fleet layer is degrading to local compute.
func (s *Server) fleetAnalysis(w http.ResponseWriter, r *http.Request, name string, values url.Values) bool {
	ds, _ := requestDataset(r)
	key, err := s.exec.FleetKeyOn(ds, name, values)
	if err != nil {
		// Unknown analysis or bad params: the local path produces the
		// canonical error envelope without a wasted hop.
		return false
	}
	owner := s.fleet.Owner(key)
	if r.Header.Get(fleet.ForwardedHeader) != "" {
		return s.fleetServeForwarded(w, r, owner, name, values)
	}
	if owner == s.fleet.Self() {
		return false // ours; plain local serve
	}
	return s.fleetForward(w, r, owner)
}

// fleetServeForwarded handles a request another replica routed here.
// Forwarded requests are never re-forwarded: whatever happens next
// happens on this node, so a membership disagreement can bounce a
// request at most once.
func (s *Server) fleetServeForwarded(w http.ResponseWriter, r *http.Request, owner, name string, values url.Values) bool {
	if s.fleet.Draining() {
		s.fleet.CountDrainRefused()
		writeError(w, http.StatusServiceUnavailable, "node_draining",
			"node %s is draining; compute locally or retry another replica", s.fleet.Self())
		return true
	}
	if !s.fleet.VersionMatches(r) {
		// The sender routed under a different membership (ring split /
		// mid-rollout). Refuse rather than serve a key this replica may
		// not own under its own ring — the sender falls back locally.
		s.fleet.CountNotOwner()
		writeError(w, http.StatusMisdirectedRequest, "not_owner",
			"node %s runs ring version %s, not the sender's %s",
			s.fleet.Self(), s.fleet.RingVersion(), r.Header.Get(fleet.RingVersionHeader))
		return true
	}
	if owner != s.fleet.Self() {
		// Same ring version yet we disagree about the owner — should be
		// impossible (the ring is deterministic); serve locally rather
		// than bounce the request around the fleet.
		s.fleet.CountLoopPrevented()
		return false
	}
	s.fleet.CountOwnerCompute()
	w.Header().Set(fleet.OwnerHeader, s.fleet.Self())
	sp := obs.StartSpan(r.Context(), "fleet-owner-compute")
	sp.SetAnalysis(name)
	sp.SetDataset(requestDatasetID(r))
	ans, meta, ok := s.runAnalysis(w, r, name, values)
	if !ok {
		sp.EndAs("fleet-owner-compute-error")
		return true
	}
	sp.End()
	writeData(w, http.StatusOK, ans, meta)
	return true
}

// fleetForward sends the request one hop to its owner and relays the
// answer. Any owner-side or transport trouble degrades to local
// compute (return false) — forwarding is an optimization, never a
// dependency.
func (s *Server) fleetForward(w http.ResponseWriter, r *http.Request, owner string) bool {
	sp := obs.StartSpan(r.Context(), "fleet-forward")
	path := r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	resp, err := s.fleet.Forward(r.Context(), owner, http.MethodGet, path, nil)
	if fleet.ShouldFallback(resp, err) {
		if resp != nil {
			_ = resp.Body.Close()
		}
		sp.EndAs("fleet-forward-fallback")
		s.fleet.CountLocalFallback()
		return false
	}
	defer resp.Body.Close()
	sp.End()
	w.Header().Set(fleet.OwnerHeader, owner)
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return true
}

// requestDatasetID is requestDataset without the scoped flag, for
// span labels.
func requestDatasetID(r *http.Request) string {
	ds, _ := requestDataset(r)
	return ds
}

// --- Distributed batch ---------------------------------------------------

// batchGroup is the slice of a distributed batch bound for one node.
type batchGroup struct {
	items   []engine.BatchItem
	indices []int // positions in the original request
}

// fleetBatch runs a batch in distributed mode: items partition by the
// owner of their (dataset, analysis, paramKey) ownership key,
// sub-batches fan out to their owners concurrently, the local group
// runs on the local ladder, and results reassemble positionally.
// Per-item error envelopes survive unchanged: a peer's item errors are
// relayed verbatim, a failed sub-batch forward falls back to computing
// those items locally, and items whose params don't even yield a key
// run locally so the normal per-item error shape reports them.
//
// Byte-identity with single-node batches is load-bearing (and tested):
// locally computed results are marshaled per item with the same
// encoder the single-node path uses, peer results are relayed as raw
// message bytes (themselves marshaled from the same struct by the
// peer), and the envelope encoder compacts and re-indents both
// identically.
func (s *Server) fleetBatch(w http.ResponseWriter, r *http.Request, items []engine.BatchItem) {
	s.fleet.CountBatchFanout()
	local := batchGroup{}
	remote := map[string]*batchGroup{}
	for i, it := range items {
		ds := it.Dataset
		if ds == "" {
			ds = dataset.DefaultID
		}
		key, err := s.exec.FleetKeyOn(ds, it.Analysis, it.Values())
		owner := ""
		if err == nil {
			owner = s.fleet.Owner(key)
		}
		if err != nil || owner == s.fleet.Self() || s.fleet.PeerURL(owner) == "" {
			local.items = append(local.items, it)
			local.indices = append(local.indices, i)
			continue
		}
		g := remote[owner]
		if g == nil {
			g = &batchGroup{}
			remote[owner] = g
		}
		g.items = append(g.items, it)
		g.indices = append(g.indices, i)
	}

	out := make([]json.RawMessage, len(items))
	var (
		wg       sync.WaitGroup
		fellBack []batchGroup // groups whose forward failed; run locally after
		fbMu     sync.Mutex
	)
	for owner, g := range remote {
		wg.Add(1)
		go func(owner string, g *batchGroup) {
			defer wg.Done()
			if results, ok := s.forwardSubBatch(r, owner, g.items); ok {
				for j, raw := range results {
					out[g.indices[j]] = raw
				}
				return
			}
			s.fleet.CountLocalFallback()
			fbMu.Lock()
			fellBack = append(fellBack, *g)
			fbMu.Unlock()
		}(owner, g)
	}
	s.runBatchGroupLocally(r, local, out)
	wg.Wait()
	for _, g := range fellBack {
		s.runBatchGroupLocally(r, g, out)
	}
	if r.Context().Err() != nil {
		return // client gone; nothing to write
	}
	writeData(w, http.StatusOK, out, BatchMeta{Items: len(out), Workers: s.exec.BatchWorkers()})
}

// runBatchGroupLocally executes one group on the local ladder and
// marshals each result into its original position.
func (s *Server) runBatchGroupLocally(r *http.Request, g batchGroup, out []json.RawMessage) {
	if len(g.items) == 0 {
		return
	}
	results := s.exec.RunBatch(r.Context(), g.items)
	for j, res := range results {
		raw, err := json.Marshal(res)
		if err != nil {
			raw = []byte(`{"error":"encode failure"}`)
		}
		out[g.indices[j]] = raw
	}
}

// forwardSubBatch POSTs one owner's items to it and splits the
// response's data array back into positional raw results. Any shape
// surprise (transport error, refusal, length mismatch) reports !ok and
// the caller computes the group locally.
func (s *Server) forwardSubBatch(r *http.Request, owner string, items []engine.BatchItem) ([]json.RawMessage, bool) {
	sp := obs.StartSpan(r.Context(), "fleet-forward")
	body, err := json.Marshal(BatchRequest{Items: items})
	if err != nil {
		sp.EndAs("fleet-forward-fallback")
		return nil, false
	}
	s.fleet.CountBatchForward(owner)
	resp, err := s.fleet.Forward(r.Context(), owner, http.MethodPost, "/api/v1/batch", body)
	if err != nil || resp.StatusCode != http.StatusOK {
		if resp != nil {
			_ = resp.Body.Close()
		}
		sp.EndAs("fleet-forward-fallback")
		return nil, false
	}
	defer resp.Body.Close()
	var env struct {
		Data []json.RawMessage `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || len(env.Data) != len(items) {
		sp.EndAs("fleet-forward-fallback")
		return nil, false
	}
	sp.End()
	return env.Data, true
}

// --- Fleet introspection --------------------------------------------------

// FleetInfo is the GET /api/v1/fleet data payload.
type FleetInfo struct {
	Self        string       `json:"self"`
	RingVersion string       `json:"ring_version"`
	Draining    bool         `json:"draining"`
	Peers       []fleet.Peer `json:"peers"`
	Stats       fleet.Stats  `json:"stats"`
}

// handleFleet serves GET /api/v1/fleet: membership, ring version,
// drain state, and the forwarding counters, so an operator can ask any
// replica how the fleet looks from where it stands.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		writeError(w, http.StatusNotFound, "not_found", "this replica is not part of a fleet")
		return
	}
	writeData(w, http.StatusOK, FleetInfo{
		Self:        s.fleet.Self(),
		RingVersion: s.fleet.RingVersion(),
		Draining:    s.fleet.Draining(),
		Peers:       s.fleet.Peers(),
		Stats:       s.fleet.Stats(),
	}, nil)
}

// StartDraining latches the fleet layer into drain mode (SIGTERM):
// in-flight work finishes, direct client traffic keeps being served,
// newly forwarded computes are refused with 503 node_draining so peers
// shift to local compute, and /readyz reports "draining" so load
// balancers stop routing here. A no-op without a fleet.
func (s *Server) StartDraining() {
	if s.fleet != nil {
		s.fleet.StartDraining()
	}
}

// Fleet exposes the fleet layer (nil in single-process mode).
func (s *Server) Fleet() *fleet.Fleet { return s.fleet }

// --- Metrics --------------------------------------------------------------

// promFleetFamilies assembles the csm_fleet_* families. Only called
// when a fleet is configured, so single-process deployments keep the
// legacy exposition byte-for-byte. Per-peer families emit one sample
// per peer (zeros included) for a stable scrape shape; the label is
// "peer", not "dataset" — peer IDs are membership-bounded, and mixing
// them into dataset-labelled families would break the label contract.
func (s *Server) promFleetFamilies() []obs.Family {
	st := s.fleet.Stats()
	peerIDs := make([]string, 0, len(st.Forwards))
	for _, p := range s.fleet.Peers() {
		if p.ID != st.Self {
			peerIDs = append(peerIDs, p.ID)
		}
	}
	sort.Strings(peerIDs)
	forwards := obs.Family{Name: "csm_fleet_forwards_total", Help: "Requests forwarded to each owning peer.", Type: obs.Counter}
	failures := obs.Family{Name: "csm_fleet_forward_failures_total", Help: "Forwards that failed in transport or were breaker-rejected, per peer.", Type: obs.Counter}
	batchFwd := obs.Family{Name: "csm_fleet_batch_forwards_total", Help: "Batch sub-requests fanned out to each owning peer.", Type: obs.Counter}
	for _, id := range peerIDs {
		l := []obs.Label{{Name: "peer", Value: id}}
		forwards.Samples = append(forwards.Samples, obs.Sample{Labels: l, Value: float64(st.Forwards[id])})
		failures.Samples = append(failures.Samples, obs.Sample{Labels: l, Value: float64(st.ForwardFailures[id])})
		batchFwd.Samples = append(batchFwd.Samples, obs.Sample{Labels: l, Value: float64(st.BatchForwards[id])})
	}
	draining := float64(0)
	if st.Draining {
		draining = 1
	}
	return []obs.Family{
		gaugeFam("csm_fleet_peers", "Fleet membership size, including this replica.", float64(st.Peers)),
		gaugeFam("csm_fleet_ring_version", "Numeric fingerprint of the consistent-hash ring membership; replicas disagreeing on this value are split.", float64(s.fleet.RingVersionValue())),
		gaugeFam("csm_fleet_draining", "1 while this replica is draining (refusing newly forwarded computes).", draining),
		forwards, failures, batchFwd,
		counterFam("csm_fleet_owner_computes_total", "Forwarded requests served here as the key's owner.", st.OwnerComputes),
		counterFam("csm_fleet_local_fallbacks_total", "Computes run locally because the owner was unreachable, draining, or disagreed about ownership.", st.LocalFallbacks),
		counterFam("csm_fleet_loops_prevented_total", "Forwarded requests that would have re-forwarded but were computed locally by the loop guard.", st.LoopsPrevented),
		counterFam("csm_fleet_not_owner_total", "Forwarded computes refused with 421 not_owner (ring-version mismatch).", st.NotOwner),
		counterFam("csm_fleet_drain_refused_total", "Forwarded computes refused with 503 node_draining.", st.DrainRefused),
		counterFam("csm_fleet_batch_fanouts_total", "Batch requests partitioned across the fleet.", st.BatchFanouts),
	}
}
