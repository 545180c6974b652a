package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// LocalTransport is an in-process "network": an http.RoundTripper that
// dispatches requests by URL host to registered handlers, with no
// sockets involved. A cluster acceptance test registers N serve.Server
// handlers under synthetic hosts ("node0", "node1", ...), wraps the
// transport in faulttest.HTTPChaos, and gets a deterministic 3-node fleet
// whose crashes, partitions and stragglers replay identically under
// -race. Re-registering a host swaps its handler, which is how a restart
// with an empty cache is modeled: a fresh serve.Server under the old
// name.
type LocalTransport struct {
	mu       sync.RWMutex
	handlers map[string]http.Handler
}

// NewLocalTransport returns an empty in-process network.
func NewLocalTransport() *LocalTransport {
	return &LocalTransport{handlers: make(map[string]http.Handler)}
}

// Register binds host to h, replacing any previous handler (a restart).
func (lt *LocalTransport) Register(host string, h http.Handler) {
	lt.mu.Lock()
	lt.handlers[host] = h
	lt.mu.Unlock()
}

// RoundTrip runs the target host's handler synchronously and returns its
// response. Unknown hosts fail like an unresolvable name.
func (lt *LocalTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	lt.mu.RLock()
	h := lt.handlers[req.URL.Host]
	lt.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("local transport: no such host %q", req.URL.Host)
	}
	if req.Body == nil {
		req.Body = http.NoBody
	}
	mw := &memWriter{header: make(http.Header)}
	h.ServeHTTP(mw, req)
	if !mw.wrote {
		mw.status = http.StatusOK
	}
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", mw.status, http.StatusText(mw.status)),
		StatusCode:    mw.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        mw.header,
		Body:          io.NopCloser(bytes.NewReader(mw.buf.Bytes())),
		ContentLength: int64(mw.buf.Len()),
		Request:       req,
	}, nil
}

// memWriter is the in-memory http.ResponseWriter behind LocalTransport.
type memWriter struct {
	header http.Header
	buf    bytes.Buffer
	status int
	wrote  bool
}

func (mw *memWriter) Header() http.Header { return mw.header }

func (mw *memWriter) WriteHeader(code int) {
	if !mw.wrote {
		mw.status = code
		mw.wrote = true
	}
}

func (mw *memWriter) Write(p []byte) (int, error) {
	if !mw.wrote {
		mw.WriteHeader(http.StatusOK)
	}
	return mw.buf.Write(p)
}
