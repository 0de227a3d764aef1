// Package obshttp exposes RUMOR telemetry over HTTP: a Prometheus
// text-format scrape endpoint, the expvar JSON dump, the lifecycle trace
// ring, and net/http/pprof — everything an operator points a scraper or a
// profiler at. The package is glue only: it renders whatever snapshot the
// configured Source returns and holds no state of its own, so one handler
// can front a local System, a sharded coordinator, or a worker process
// (cmd/rumornode and cmd/rumorcli wire it behind -metrics).
//
// Endpoints under the returned handler:
//
//	/metrics       Prometheus text format (counters, gauges, histograms)
//	/trace         lifecycle trace ring as JSON, oldest event first
//	/debug/vars    expvar (includes a "rumor" var with the same snapshot)
//	/debug/pprof/  standard pprof index, profile, heap, etc.
package obshttp

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"

	"repro"
)

// Source produces the snapshot a scrape renders. It is called once per
// request; implementations decide what merging costs (System.Metrics
// takes a quiesce barrier, ShardWorker.Metrics is lock-free).
type Source func() (*rumor.Metrics, error)

// expvarOnce guards the process-wide expvar registration: expvar.Publish
// panics on duplicate names, and tests build several handlers.
var (
	expvarOnce sync.Once
	expvarMu   sync.Mutex
	expvarSrc  Source
)

// Handler returns an HTTP handler serving the telemetry endpoints from
// src. A nil src serves empty snapshots (the trace and pprof endpoints
// still work).
func Handler(src Source) http.Handler {
	if src == nil {
		src = func() (*rumor.Metrics, error) { return &rumor.Metrics{}, nil }
	}
	expvarMu.Lock()
	expvarSrc = src
	expvarMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("rumor", expvar.Func(func() any {
			expvarMu.Lock()
			s := expvarSrc
			expvarMu.Unlock()
			m, err := s()
			if err != nil {
				return map[string]string{"error": err.Error()}
			}
			return m
		}))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		m, err := src()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteProm(w, m)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rumor.TraceEvents())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// baseName strips a label suffix: "x{shard=\"0\"}" → "x". TYPE lines name
// the metric family, not the labeled series.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WriteProm renders m in the Prometheus text exposition format, families
// sorted by name, one TYPE line per family. Histograms render cumulative
// le buckets over the registry's power-of-two layout plus +Inf, _sum, and
// _count.
func WriteProm(w io.Writer, m *rumor.Metrics) {
	writeScalars(w, m.Counters, "counter")
	writeScalars(w, m.Gauges, "gauge")
	names := make([]string, 0, len(m.Hists))
	for name := range m.Hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := m.Hists[name]
		base := baseName(name)
		fmt.Fprintf(w, "# TYPE %s histogram\n", base)
		cum := int64(0)
		for i, n := range h.Buckets {
			cum += n
			bound := rumor.HistogramBucketBound(i)
			if bound < 0 {
				break // +Inf bucket rendered below from the total count
			}
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", base, bound, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", base, h.Count)
		fmt.Fprintf(w, "%s_sum %d\n", base, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", base, h.Count)
	}
}

// writeScalars renders one scalar family set (counters or gauges) sorted
// by name, emitting the TYPE line once per family — labeled series of one
// family sort adjacently, so a family change is a base-name change.
func writeScalars(w io.Writer, vals map[string]int64, typ string) {
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	prevBase := ""
	for _, name := range names {
		base := baseName(name)
		if base != prevBase {
			fmt.Fprintf(w, "# TYPE %s %s\n", base, typ)
			prevBase = base
		}
		fmt.Fprintf(w, "%s %d\n", name, vals[name])
	}
}

// Server is a running telemetry listener.
type Server struct {
	lis net.Listener
	srv *http.Server
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops the listener.
func (s *Server) Close() error { return s.srv.Close() }

// Start listens on addr and serves Handler(src) until Close. It returns
// as soon as the listener is bound; serving continues in a background
// goroutine.
func Start(addr string, src Source) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(src)}
	go srv.Serve(lis)
	return &Server{lis: lis, srv: srv}, nil
}
