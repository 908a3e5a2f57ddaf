package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// http.go is the export surface: an http.Handler (and a managed server
// around it) serving the registry as /metrics.json, bridging it into
// the expvar format at /debug/vars alongside the runtime's own expvar
// globals (cmdline, memstats), and mounting net/http/pprof under
// /debug/pprof/ — the profiling workflow the ROADMAP's "fast as the
// hardware allows" target needs before the next perf PR can be trusted.

// Handler returns the observability mux for a registry:
//
//	/metrics.json   deterministic registry snapshot (indented JSON)
//	/debug/vars     expvar-format bridge: runtime globals + the registry
//	/debug/pprof/   the standard pprof index, profiles, and traces
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		reg.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		serveVars(w, reg)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveVars renders the expvar JSON object: every published expvar
// (memstats, cmdline, anything else the process registered) plus the
// registry's metrics flattened under their own names. Writing the
// bridge by hand — instead of expvar.Publish — keeps registries
// independent: two servers over two registries never fight over the
// process-global expvar namespace. Names are quoted as JSON strings:
// some arrive from the network (a fleet worker's -name), and Go's %q
// quoting of a control byte or invalid UTF-8 is not JSON.
func serveVars(w http.ResponseWriter, reg *Registry) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n")
	first := true
	emit := func(key, val string) {
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		first = false
		k, _ := json.Marshal(key) // a string always marshals
		fmt.Fprintf(w, "%s: %s", k, val)
	}
	expvar.Do(func(kv expvar.KeyValue) {
		emit(kv.Key, kv.Value.String())
	})
	snap := reg.Snapshot()
	for _, name := range reg.Names() {
		if v, ok := snap.Counters[name]; ok {
			emit(name, fmt.Sprintf("%d", v))
		} else if v, ok := snap.Gauges[name]; ok {
			emit(name, fmt.Sprintf("%d", v))
		} else if h, ok := snap.Histograms[name]; ok {
			emit(name, fmt.Sprintf(`{"count": %d, "p50_ns": %d, "p90_ns": %d, "p99_ns": %d, "max_ns": %d}`,
				h.Count, h.P50NS, h.P90NS, h.P99NS, h.MaxNS))
		}
	}
	fmt.Fprintf(w, "\n}\n")
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
