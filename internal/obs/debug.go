package obs

import (
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
)

// DebugMux returns the standalone diagnostics mux, the -debug-addr
// listener of sparqld:
//
//	/metrics            metrics registry snapshot as JSON
//	/debug/vars         expvar (cmdline, memstats, published registries)
//	/debug/pprof/...    runtime profiles (net/http/pprof)
//	/debug/traces       recent query traces, rendered as text
//	/debug/slow         retained slow queries, rendered as text
//	/workload           per-shape workload statistics (JSON/text)
//
// reg, tracer, slow, and workload may be nil, which skips their routes.
func DebugMux(reg *Registry, tracer *Tracer, slow *SlowLog, workload *Workload) *http.ServeMux {
	mux := http.NewServeMux()
	if reg != nil {
		mux.Handle("/metrics", reg)
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if tracer != nil {
		mux.HandleFunc("/debug/traces", TracesHandler(tracer))
	}
	if slow != nil {
		mux.HandleFunc("/debug/slow", SlowHandler(slow))
	}
	if workload != nil {
		mux.HandleFunc("/workload", WorkloadHandler(workload))
	}
	return mux
}

// TracesHandler serves the tracer's recent query traces (newest first)
// as plain text EXPLAIN ANALYZE trees.
func TracesHandler(tracer *Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		recent := tracer.Recent()
		if len(recent) == 0 {
			fmt.Fprintln(w, "no traces collected (is tracing enabled?)")
			return
		}
		for i, tr := range recent {
			if i > 0 {
				fmt.Fprintln(w, "----------------------------------------")
			}
			fmt.Fprintln(w, tr.Render())
		}
	}
}
