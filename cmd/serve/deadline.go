package main

import (
	"context"
	"io"
	"net/http"
	"time"
)

// timeoutBody is the body of the 503 a request gets when it outlives
// -request-timeout.
const timeoutBody = `{"error":{"code":"timeout","message":"request timed out"}}`

// withDeadline runs h under a context deadline of d, on the goroutine
// that serves the connection. The client sees what http.TimeoutHandler
// would show it, without that wrapper's second goroutine, timer channel,
// header copy and response buffer per request:
//
//   - once the request context is done, h's writes are discarded and
//     fail, as TimeoutHandler's do;
//   - when h returns without having written anything and the context is
//     done, the client gets 503 and none of h's headers: with
//     timeoutBody when the deadline passed, with no body when the
//     request was cancelled (client gone, server shutting down).
//
// The two differ for a handler that writes (or sets its status) before
// the deadline and then outlives it: TimeoutHandler discards the
// buffered response for its 503, while here the client keeps what was
// written. No route does that: each writes its whole response in one
// go after its slow steps, which read the context. The fleet relay
// is the nearest case: it sends the owner's status and then copies a
// body that the owner wrote in one piece.
func withDeadline(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		dw := &deadlineWriter{ResponseWriter: w, ctx: ctx}
		h.ServeHTTP(dw, r.WithContext(ctx))
		err := ctx.Err()
		if dw.wrote || err == nil {
			return
		}
		clear(w.Header())
		w.WriteHeader(http.StatusServiceUnavailable)
		if err == context.DeadlineExceeded {
			_, _ = io.WriteString(w, timeoutBody)
		}
	})
}

// deadlineWriter passes writes through until its context is done and
// records whether any reached the client.
type deadlineWriter struct {
	http.ResponseWriter
	ctx   context.Context
	wrote bool
}

func (w *deadlineWriter) WriteHeader(code int) {
	if w.ctx.Err() != nil {
		return
	}
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *deadlineWriter) Write(p []byte) (int, error) {
	if err := w.ctx.Err(); err != nil {
		if err == context.DeadlineExceeded {
			err = http.ErrHandlerTimeout
		}
		return 0, err
	}
	w.wrote = true
	return w.ResponseWriter.Write(p)
}
