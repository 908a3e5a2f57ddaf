package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// http.go is the export surface: an http.Handler (and a managed server
// around it) serving the registry as /metrics.json and mounting
// net/http/pprof under /debug/pprof/, where the runtime's own figures
// are too (MemStats at /debug/pprof/heap?debug=1, the command line at
// /debug/pprof/cmdline).

// Handler returns the observability mux for a registry:
//
//	/metrics.json   deterministic registry snapshot (indented JSON)
//	/debug/pprof/   the standard pprof index, profiles, and traces
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		reg.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// MetricsServer is a running observability endpoint. Close shuts it
// down gracefully and waits for the serve loop to exit, so tests can
// assert no goroutine leaks.
type MetricsServer struct {
	srv  *http.Server
	lis  net.Listener
	done chan struct{}
}

// Serve binds addr (e.g. ":9090", or "127.0.0.1:0" for tests) and
// serves Handler(reg) until Close.
func Serve(addr string, reg *Registry) (*MetricsServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listening on %s: %w", addr, err)
	}
	ms := &MetricsServer{
		srv:  &http.Server{Handler: Handler(reg), ReadHeaderTimeout: 10 * time.Second},
		lis:  lis,
		done: make(chan struct{}),
	}
	go func() {
		defer close(ms.done)
		ms.srv.Serve(lis) // returns ErrServerClosed on Shutdown
	}()
	return ms, nil
}

// Addr returns the bound listen address.
func (ms *MetricsServer) Addr() string { return ms.lis.Addr().String() }

// Close gracefully shuts the server down (bounded at two seconds, then
// hard-closes) and waits for the serve goroutine to exit. Idempotent.
func (ms *MetricsServer) Close() error {
	if ms == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := ms.srv.Shutdown(ctx)
	if err != nil {
		ms.srv.Close()
	}
	<-ms.done
	return err
}
