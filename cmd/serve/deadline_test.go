package main

import (
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// response is what a client sees of one exchange, Date aside.
type response struct {
	err              bool
	status           int
	header           http.Header
	transferEncoding []string
	contentLength    int64
	body             string
}

// exchange serves h on a loopback server and makes one GET.
func exchange(t *testing.T, h http.Handler) response {
	t.Helper()
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ErrorLog = log.New(io.Discard, "", 0) // the panic case logs a stack
	srv.Start()
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/api/v1/agreement")
	if err != nil {
		return response{err: true}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	resp.Header.Del("Date")
	return response{
		status:           resp.StatusCode,
		header:           resp.Header,
		transferEncoding: resp.TransferEncoding,
		contentLength:    resp.ContentLength,
		body:             string(body),
	}
}

// TestDeadlineMatchesTimeoutHandler runs the same handlers behind
// withDeadline and behind http.TimeoutHandler, the wrapper it replaced,
// and requires the client to see the same status, headers and body.
// The one case where the two differ, a handler that writes and then
// outlives the deadline, is documented on withDeadline.
func TestDeadlineMatchesTimeoutHandler(t *testing.T) {
	const d = 100 * time.Millisecond
	envelope := func(w http.ResponseWriter, status int, body string) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Trace", "00000001")
		w.WriteHeader(status)
		_, _ = io.WriteString(w, body)
	}
	large := strings.Repeat(`{"course":"hanover-cs225-wahl","tags":["AL/basic-analysis"]},`, 100)
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		want    int // status, or 0 for no response at all
	}{
		{"writes before the deadline", func(w http.ResponseWriter, r *http.Request) {
			envelope(w, http.StatusCreated, `{"data":{"ok":true}}`)
		}, http.StatusCreated},
		{"writes a large body in pieces before the deadline", func(w http.ResponseWriter, r *http.Request) {
			envelope(w, http.StatusOK, large)
			_, _ = io.WriteString(w, large)
			_, _ = io.WriteString(w, large)
		}, http.StatusOK},
		{"returns without writing", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Trace", "00000001")
		}, http.StatusOK},
		{"honours ctx and writes nothing", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Trace", "00000001")
			<-r.Context().Done()
		}, http.StatusServiceUnavailable},
		{"writes a 504 envelope after the deadline", func(w http.ResponseWriter, r *http.Request) {
			<-r.Context().Done()
			envelope(w, http.StatusGatewayTimeout, `{"error":{"code":"timeout","message":"computation timed out"}}`)
		}, http.StatusServiceUnavailable},
		{"panics", func(w http.ResponseWriter, r *http.Request) {
			envelope(w, http.StatusOK, `{"data":`)
			panic("boom")
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := exchange(t, http.TimeoutHandler(tc.handler, d, timeoutBody))
			got := exchange(t, withDeadline(tc.handler, d))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("withDeadline: %+v\nTimeoutHandler: %+v", got, want)
			}
			if tc.want == 0 {
				if !got.err {
					t.Fatalf("got a response %+v, want the connection dropped", got)
				}
				return
			}
			if got.status != tc.want {
				t.Fatalf("status %d, want %d", got.status, tc.want)
			}
			if tc.want == http.StatusServiceUnavailable && (got.body != timeoutBody || got.header.Get("X-Trace") != "") {
				t.Fatalf("timeout response %+v, want the timeout body and no handler headers", got)
			}
		})
	}
}

// TestDeadlineRunsHandlerOnCallerGoroutine: the wrapped handler's stack
// continues its caller's, so serving a request starts no goroutine. The
// same probe finds TimeoutHandler's handler on a goroutine of its own.
func TestDeadlineRunsHandlerOnCallerGoroutine(t *testing.T) {
	const caller = "csmaterials/cmd/serve.TestDeadlineRunsHandlerOnCallerGoroutine"
	onCallerStack := func(wrap func(http.Handler) http.Handler) bool {
		var found bool
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			pcs := make([]uintptr, 64)
			frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
			for {
				f, more := frames.Next()
				if f.Function == caller {
					found = true
				}
				if !more {
					break
				}
			}
		})
		wrap(h).ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
		return found
	}
	if !onCallerStack(func(h http.Handler) http.Handler { return withDeadline(h, time.Second) }) {
		t.Fatal("withDeadline ran the handler on another goroutine")
	}
	if onCallerStack(func(h http.Handler) http.Handler { return http.TimeoutHandler(h, time.Second, timeoutBody) }) {
		t.Fatal("the probe found TimeoutHandler's handler on the caller's goroutine; it cannot tell the two apart")
	}
}

// TestDeadlineLateWriteAndCancel covers what a loopback client cannot
// see. A write after the deadline reports 0 bytes and
// http.ErrHandlerTimeout, as TimeoutHandler's does; the wide event's
// bytes field counts what writes report. A request cancelled before its
// deadline (client gone, server shutting down) gets a 503 with no body
// and none of the handler's headers, what TimeoutHandler writes on a
// cancel. TimeoutHandler is not run here: whether it sees the cancel or
// the handler's return first depends on goroutine scheduling.
func TestDeadlineLateWriteAndCancel(t *testing.T) {
	var n int
	var writeErr error
	late := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		n, writeErr = w.Write([]byte("late"))
	})
	withDeadline(late, 10*time.Millisecond).ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	if n != 0 || writeErr != http.ErrHandlerTimeout {
		t.Fatalf("late write = (%d, %v), want (0, http.ErrHandlerTimeout)", n, writeErr)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Trace", "00000001")
		cancel()
		<-r.Context().Done()
	})
	rec := httptest.NewRecorder()
	withDeadline(cancelled, time.Minute).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil).WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable || rec.Body.Len() != 0 || len(rec.Header()) != 0 {
		t.Fatalf("cancelled request got %d %q %v, want a bare 503", rec.Code, rec.Body.Bytes(), rec.Header())
	}
}
