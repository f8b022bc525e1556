package serving

import (
	"encoding/json"
	"log"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"csmaterials/internal/resilience"
)

// StatusWriter wraps a ResponseWriter and records the status code and
// body size actually written, so middleware can log and meter them.
type StatusWriter struct {
	http.ResponseWriter
	Status int
	Bytes  int64
	wrote  bool
}

// Wrap returns w as a *StatusWriter, reusing it if already wrapped.
func Wrap(w http.ResponseWriter) *StatusWriter {
	if sw, ok := w.(*StatusWriter); ok {
		return sw
	}
	return &StatusWriter{ResponseWriter: w}
}

func (w *StatusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.Status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *StatusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.Status = http.StatusOK
		w.wrote = true
	}
	n, err := w.ResponseWriter.Write(b)
	w.Bytes += int64(n)
	return n, err
}

// Wrote reports whether any status or body reached the client.
func (w *StatusWriter) Wrote() bool { return w.wrote }

// Recover converts handler panics into a 500 JSON error envelope
// (matching the API's {"error":{"code","message"}} shape) instead of a
// dropped connection, logging the stack to logger.
func Recover(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := Wrap(w)
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			if logger != nil {
				logger.Printf("panic method=%s path=%s err=%v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			}
			if !sw.Wrote() {
				WriteJSON(sw, http.StatusInternalServerError, map[string]interface{}{
					"error": map[string]string{
						"code":    "internal",
						"message": "internal server error",
					},
				})
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// Instrument meters next under the given route label: request count,
// status codes, latency histogram, and the in-flight gauge.
func Instrument(m *Metrics, route string, next http.Handler) http.Handler {
	if m == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := Wrap(w)
		m.IncInFlight()
		start := time.Now()
		defer func() {
			m.DecInFlight()
			status := sw.Status
			if !sw.Wrote() {
				status = http.StatusOK
			}
			if p := recover(); p != nil {
				// A panic is escaping to the Recover middleware; meter
				// it as the 500 that Recover will write.
				m.Observe(route, http.StatusInternalServerError, time.Since(start))
				panic(p)
			}
			m.Observe(route, status, time.Since(start))
		}()
		next.ServeHTTP(sw, r)
	})
}

// Shed rejects requests past the two-level admission limiter with a
// 429 JSON error envelope and a Retry-After hint, before any work is
// done on their behalf. The rejecting scope is threaded into the
// envelope: "capacity" when the global in-flight cap is exhausted,
// "tenant_quota" when the requesting tenant is over its own quota
// while the server still has headroom. tenantOf maps a request to its
// tenant (dataset) id; nil attributes everything to one tenant. A nil
// limiter disables shedding.
func Shed(l *resilience.TenantLimiter, tenantOf func(*http.Request) string, next http.Handler) http.Handler {
	if l == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tenant := ""
		if tenantOf != nil {
			tenant = tenantOf(r)
		}
		res := l.Acquire(tenant)
		if res != resilience.Admitted {
			w.Header().Set("Retry-After", RetryAfterSeconds(l.RetryAfter(tenant, res)))
			code, msg := "capacity", "server is at capacity, retry later"
			if res == resilience.ShedQuota {
				code = "tenant_quota"
				msg = "dataset " + strconv.Quote(tenant) + " is over its admission quota, retry later"
			}
			WriteJSON(w, http.StatusTooManyRequests, map[string]interface{}{
				"error": map[string]string{
					"code":    code,
					"message": msg,
				},
			})
			return
		}
		defer l.Release(tenant)
		next.ServeHTTP(w, r)
	})
}

// RetryAfterSeconds renders d as a Retry-After header value (integer
// seconds, rounded up, at least 1).
func RetryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// WriteJSON writes v as indented JSON with the right content type.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
