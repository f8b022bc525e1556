package serving

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRecoverConvertsPanicTo500JSON(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	h := Recover(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/x", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d", rr.Code)
	}
	var out struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.Bytes())
	}
	if out.Error.Code != "internal" || out.Error.Message == "" {
		t.Fatalf("error envelope = %+v", out)
	}
	if !strings.Contains(buf.String(), "kaboom") {
		t.Fatalf("panic not logged: %q", buf.String())
	}
}

func TestRecoverPassesThroughNormalResponses(t *testing.T) {
	h := Recover(nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("tea"))
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/x", nil))
	if rr.Code != http.StatusTeapot || rr.Body.String() != "tea" {
		t.Fatalf("resp = %d %q", rr.Code, rr.Body.String())
	}
}

func TestInstrumentRecordsRoute(t *testing.T) {
	m := NewMetrics()
	h := Instrument(m, "GET /slow", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/slow", nil))
	ex := m.Export()
	rs := routeExport(t, ex, "GET /slow")
	if rs.Latency.Count != 1 || statusCount(rs, 200) != 1 {
		t.Fatalf("route stats = %+v", rs)
	}
	if ex.InFlight != 0 {
		t.Fatalf("in_flight = %d after request", ex.InFlight)
	}
}

func TestInstrumentMetersEscapingPanicAs500(t *testing.T) {
	m := NewMetrics()
	h := Recover(nil, Instrument(m, "GET /boom", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/boom", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d", rr.Code)
	}
	ex := m.Export()
	if rs := routeExport(t, ex, "GET /boom"); statusCount(rs, 500) != 1 {
		t.Fatalf("route stats = %+v", rs)
	}
	if got := ex.InFlight; got != 0 {
		t.Fatalf("in_flight = %d after panic", got)
	}
}

func TestStatusWriterDefaultsTo200(t *testing.T) {
	rr := httptest.NewRecorder()
	sw := Wrap(rr)
	sw.Write([]byte("hi"))
	if sw.Status != http.StatusOK || sw.Bytes != 2 || !sw.Wrote() {
		t.Fatalf("sw = %+v", sw)
	}
	if Wrap(sw) != sw {
		t.Fatal("double wrap")
	}
}
