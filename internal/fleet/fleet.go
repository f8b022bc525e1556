package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"csmaterials/internal/resilience"
)

// Wire protocol headers. A forwarded request carries the origin's node
// ID (the loop guard: forwarded requests are never re-forwarded) and
// its ring version (the handshake: the owner refuses computes routed
// under a divergent membership). Responses that went through the fleet
// layer name the node that computed them.
const (
	ForwardedHeader   = "X-CSM-Forwarded"
	RingVersionHeader = "X-CSM-Ring-Version"
	OwnerHeader       = "X-CSM-Owner"
)

// DefaultForwardTimeout caps one forwarded hop. Forwarding is an
// optimization (cache locality), not a requirement — past this the
// origin gives up and computes locally.
const DefaultForwardTimeout = 10 * time.Second

// Peer is one fleet member: a stable node ID (the ring identity) and
// the base URL its HTTP listener is reachable at.
type Peer struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Config is a fleet's static membership as seen by one member.
type Config struct {
	// Self is this replica's node ID. It must appear in Peers.
	Self string
	// Peers is the full membership, including self.
	Peers []Peer
}

// ParsePeers parses the -peers flag value — comma-separated
// "id=host:port" entries (a scheme is optional and defaults to
// http://) — into a Config for self. Every replica in a fleet must be
// started with the same membership list; self must be one of the IDs.
func ParsePeers(self, peers string) (Config, error) {
	if self == "" {
		return Config{}, errors.New("fleet: -node-id is required with -peers")
	}
	cfg := Config{Self: self}
	seen := make(map[string]bool)
	for _, entry := range strings.Split(peers, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, addr, ok := strings.Cut(entry, "=")
		id, addr = strings.TrimSpace(id), strings.TrimSpace(addr)
		if !ok || id == "" || addr == "" {
			return Config{}, fmt.Errorf("fleet: bad -peers entry %q (want id=host:port)", entry)
		}
		if seen[id] {
			return Config{}, fmt.Errorf("fleet: duplicate node id %q in -peers", id)
		}
		seen[id] = true
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		cfg.Peers = append(cfg.Peers, Peer{ID: id, URL: strings.TrimRight(addr, "/")})
	}
	if len(cfg.Peers) == 0 {
		return Config{}, errors.New("fleet: -peers is empty")
	}
	if !seen[self] {
		return Config{}, fmt.Errorf("fleet: -node-id %q not present in -peers", self)
	}
	return cfg, nil
}

// Options tune a Fleet. Zero values take defaults.
type Options struct {
	// VirtualNodes per member on the ring (DefaultVirtualNodes).
	VirtualNodes int
	// BreakerThreshold / BreakerCooldown configure the per-peer
	// forwarding breakers (resilience defaults).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ForwardTimeout caps one forwarded hop (DefaultForwardTimeout).
	ForwardTimeout time.Duration
	// Client is the HTTP client for peer traffic (a fresh one).
	Client *http.Client
}

// Fleet is one replica's view of the scale-out layer: the ring, the
// peer table, the forwarding client with its per-peer breakers, the
// draining latch, and the csm_fleet_* counters.
type Fleet struct {
	self           string
	ring           *Ring
	peers          map[string]Peer // members other than self
	all            []Peer          // full membership, sorted by ID
	client         *http.Client
	breakers       *resilience.BreakerSet
	forwardTimeout time.Duration
	draining       atomic.Bool

	mu              sync.Mutex
	forwards        map[string]uint64 // per peer
	forwardFailures map[string]uint64 // per peer
	batchForwards   map[string]uint64 // per peer
	ownerComputes   uint64
	localFallbacks  uint64
	loopsPrevented  uint64
	notOwner        uint64
	drainRefused    uint64
	batchFanouts    uint64
}

// New builds a Fleet from a parsed membership.
func New(cfg Config, o Options) (*Fleet, error) {
	if cfg.Self == "" || len(cfg.Peers) == 0 {
		return nil, errors.New("fleet: empty membership")
	}
	ids := make([]string, 0, len(cfg.Peers))
	peers := make(map[string]Peer, len(cfg.Peers))
	selfSeen := false
	for _, p := range cfg.Peers {
		ids = append(ids, p.ID)
		if p.ID == cfg.Self {
			selfSeen = true
			continue
		}
		peers[p.ID] = p
	}
	if !selfSeen {
		return nil, fmt.Errorf("fleet: self %q not in membership", cfg.Self)
	}
	all := append([]Peer(nil), cfg.Peers...)
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	if o.ForwardTimeout <= 0 {
		o.ForwardTimeout = DefaultForwardTimeout
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return &Fleet{
		self:            cfg.Self,
		ring:            NewRing(ids, o.VirtualNodes),
		peers:           peers,
		all:             all,
		client:          o.Client,
		breakers:        resilience.NewBreakerSet(o.BreakerThreshold, o.BreakerCooldown),
		forwardTimeout:  o.ForwardTimeout,
		forwards:        make(map[string]uint64),
		forwardFailures: make(map[string]uint64),
		batchForwards:   make(map[string]uint64),
	}, nil
}

// Self returns this replica's node ID.
func (f *Fleet) Self() string { return f.self }

// Owner returns the node ID owning key on this replica's ring.
func (f *Fleet) Owner(key string) string { return f.ring.Owner(key) }

// Owns reports whether this replica owns key.
func (f *Fleet) Owns(key string) bool { return f.ring.Owner(key) == f.self }

// Peers returns the full sorted membership, including self.
func (f *Fleet) Peers() []Peer { return append([]Peer(nil), f.all...) }

// PeerURL returns the base URL for a node ID ("" for self or unknown).
func (f *Fleet) PeerURL(id string) string { return f.peers[id].URL }

// RingVersion returns the membership fingerprint (see Ring.Version).
func (f *Fleet) RingVersion() string { return f.ring.Version() }

// RingVersionValue is the fingerprint as a gauge value.
func (f *Fleet) RingVersionValue() uint32 { return f.ring.VersionValue() }

// VersionMatches reports whether a forwarded request was routed under
// the same membership this replica runs. An empty header (a direct
// client talking to the internal endpoint) does not match.
func (f *Fleet) VersionMatches(r *http.Request) bool {
	return r.Header.Get(RingVersionHeader) == f.ring.Version()
}

// StartDraining latches the replica into drain mode: it finishes
// in-flight work and keeps answering direct client traffic, but
// refuses newly forwarded computes with 503 node_draining so peers
// fall back to local compute while this process shuts down.
func (f *Fleet) StartDraining() { f.draining.Store(true) }

// Draining reports whether StartDraining has been called.
func (f *Fleet) Draining() bool { return f.draining.Load() }

// Forward sends one hop to the owner peer: method + pathAndQuery
// against the peer's base URL, with the loop-guard and ring-version
// headers set and the peer's breaker consulted. The caller owns the
// response body. Transport errors and 5xx responses count against the
// peer's breaker; an open breaker fails fast with resilience.ErrOpen.
func (f *Fleet) Forward(ctx context.Context, owner, method, pathAndQuery string, body []byte) (*http.Response, error) {
	peer, ok := f.peers[owner]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown peer %q", owner)
	}
	br := f.breakers.Get(owner)
	if !br.Allow() {
		f.countForwardFailure(owner)
		return nil, fmt.Errorf("fleet: peer %s: %w", owner, resilience.ErrOpen)
	}
	ctx, cancel := context.WithTimeout(ctx, f.forwardTimeout)
	req, err := http.NewRequestWithContext(ctx, method, peer.URL+pathAndQuery, bytes.NewReader(body))
	if err != nil {
		cancel()
		br.Record(true) // not the peer's fault
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(ForwardedHeader, f.self)
	req.Header.Set(RingVersionHeader, f.ring.Version())
	f.countForward(owner)
	resp, err := f.client.Do(req)
	if err != nil {
		cancel()
		br.Record(false)
		f.countForwardFailure(owner)
		return nil, err
	}
	br.Record(resp.StatusCode < 500)
	// The timeout must outlive this call: the caller still reads the
	// body. Closing the body releases it.
	resp.Body = cancelOnClose{resp.Body, cancel}
	return resp, nil
}

// cancelOnClose releases a forwarded hop's timeout context when the
// caller finishes with the response body.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// ShouldFallback classifies a Forward outcome: true when the origin
// should give up on the owner and compute locally (transport error,
// breaker open, owner-side 5xx, or an ownership disagreement 421),
// false when the owner's response should be relayed to the client
// verbatim (2xx data, 4xx like validation errors, 429 shedding).
func ShouldFallback(resp *http.Response, err error) bool {
	if err != nil {
		return true
	}
	return resp.StatusCode >= 500 || resp.StatusCode == http.StatusMisdirectedRequest
}

// BreakerStats snapshots the per-peer forwarding breakers.
func (f *Fleet) BreakerStats() map[string]resilience.BreakerStats {
	return f.breakers.Stats()
}

// Counter hooks. The server calls these at the routing decision points;
// they are the source of truth for the csm_fleet_* families.

func (f *Fleet) countForward(peer string) {
	f.mu.Lock()
	f.forwards[peer]++
	f.mu.Unlock()
}

func (f *Fleet) countForwardFailure(peer string) {
	f.mu.Lock()
	f.forwardFailures[peer]++
	f.mu.Unlock()
}

// CountBatchForward records one sub-batch fanned out to peer.
func (f *Fleet) CountBatchForward(peer string) {
	f.mu.Lock()
	f.batchForwards[peer]++
	f.mu.Unlock()
}

// CountOwnerCompute records a forwarded compute served as owner.
func (f *Fleet) CountOwnerCompute() { f.bump(&f.ownerComputes) }

// CountLocalFallback records a compute run locally because the owner
// was unreachable, draining, or disagreed about ownership.
func (f *Fleet) CountLocalFallback() { f.bump(&f.localFallbacks) }

// CountLoopPrevented records a forwarded request that would have been
// re-forwarded (ownership disagreement) but was computed locally by
// the loop guard instead.
func (f *Fleet) CountLoopPrevented() { f.bump(&f.loopsPrevented) }

// CountNotOwner records a forwarded compute refused with 421.
func (f *Fleet) CountNotOwner() { f.bump(&f.notOwner) }

// CountDrainRefused records a forwarded compute refused with 503
// node_draining.
func (f *Fleet) CountDrainRefused() { f.bump(&f.drainRefused) }

// CountBatchFanout records one distributed batch partitioning.
func (f *Fleet) CountBatchFanout() { f.bump(&f.batchFanouts) }

func (f *Fleet) bump(p *uint64) {
	f.mu.Lock()
	*p++
	f.mu.Unlock()
}

// Stats is a point-in-time snapshot of the fleet counters.
type Stats struct {
	Self            string            `json:"self"`
	RingVersion     string            `json:"ring_version"`
	Draining        bool              `json:"draining"`
	Peers           int               `json:"peers"`
	Forwards        map[string]uint64 `json:"forwards_total"`
	ForwardFailures map[string]uint64 `json:"forward_failures_total"`
	BatchForwards   map[string]uint64 `json:"batch_forwards_total"`
	OwnerComputes   uint64            `json:"owner_computes_total"`
	LocalFallbacks  uint64            `json:"local_fallbacks_total"`
	LoopsPrevented  uint64            `json:"loops_prevented_total"`
	NotOwner        uint64            `json:"not_owner_total"`
	DrainRefused    uint64            `json:"drain_refused_total"`
	BatchFanouts    uint64            `json:"batch_fanouts_total"`
}

// Stats snapshots the counters.
func (f *Fleet) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := Stats{
		Self:            f.self,
		RingVersion:     f.ring.Version(),
		Draining:        f.draining.Load(),
		Peers:           len(f.all),
		Forwards:        make(map[string]uint64, len(f.forwards)),
		ForwardFailures: make(map[string]uint64, len(f.forwardFailures)),
		BatchForwards:   make(map[string]uint64, len(f.batchForwards)),
		OwnerComputes:   f.ownerComputes,
		LocalFallbacks:  f.localFallbacks,
		LoopsPrevented:  f.loopsPrevented,
		NotOwner:        f.notOwner,
		DrainRefused:    f.drainRefused,
		BatchFanouts:    f.batchFanouts,
	}
	for k, v := range f.forwards {
		s.Forwards[k] = v
	}
	for k, v := range f.forwardFailures {
		s.ForwardFailures[k] = v
	}
	for k, v := range f.batchForwards {
		s.BatchForwards[k] = v
	}
	return s
}
