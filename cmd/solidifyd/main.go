// Command solidifyd is the always-on solidification service: it serves the
// jobd HTTP/JSON API, running submitted schedule-driven simulations up to
// -jobs at a time against one shared -budget of sweep workers. Queued jobs
// with strictly higher priority preempt running ones at timestep
// boundaries via lossless in-memory checkpoints and later resume
// bit-identically. On SIGTERM/SIGINT the daemon drains: every in-flight
// job is checkpointed and — with -store-dir — recorded in the store beside
// the queue, so the next instance over the same directory picks both back
// up.
//
// Campaigns submit as job arrays (POST /arrays): a template spec expands
// over a parameter grid into one child job per grid point, children
// interleaving fairly with other submissions. Named resource classes
// (-class name=W, e.g. -class small=2 -class large=6) cap how many workers
// each class's jobs may hold collectively, so an array of cheap scouts
// never starves a production run. With -store-dir, terminal jobs spill
// their final checkpoint, replayable schedule and metrics summary to a
// content-addressed on-disk store, and a restarted daemon keeps serving
// /result and /schedule byte-identically. The store's growth is bounded
// by -store-max-bytes / -store-max-age, enforced at startup and on the
// -store-gc-every cadence.
//
// A daemon joins a federation by announcing itself to a solidifygw
// gateway: -gateway names the gateway, -advertise the URL the gateway
// reaches this daemon at, and -fleet-token authenticates registration.
// The periodic announcement doubles as a heartbeat.
//
// Usage:
//
//	solidifyd -addr :8080 -jobs 2 -budget 8 -class small=2 \
//	  -store-dir /var/lib/solidifyd/store
//
//	curl -X POST -d '{"nx":32,"ny":32,"nz":64,"steps":500,
//	  "schedule":{"events":[{"type":"ramp","param":"v","step":0,
//	  "over":200,"from":0.02,"to":0.05}]}}' localhost:8080/jobs
//	curl -X POST -d @array.json localhost:8080/arrays
//	curl localhost:8080/arrays/arr-0001            # aggregated status
//	curl localhost:8080/arrays/arr-0001/results    # per-child params + metrics
//	curl localhost:8080/jobs/job-0001/metrics      # NDJSON stream
//	curl localhost:8080/jobs/job-0001/schedule     # replayable audit log
//	curl -X DELETE localhost:8080/arrays/arr-0001
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/jobd"
)

// classFlags accumulates repeated -class name=W definitions.
type classFlags map[string]int

func (c classFlags) String() string {
	parts := make([]string, 0, len(c))
	for name, w := range c {
		parts = append(parts, fmt.Sprintf("%s=%d", name, w))
	}
	return strings.Join(parts, ",")
}

func (c classFlags) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=workers, got %q", v)
	}
	w, err := strconv.Atoi(val)
	if err != nil || w < 1 {
		return fmt.Errorf("class %q needs a positive worker count, got %q", name, val)
	}
	c[name] = w
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	jobs := flag.Int("jobs", 2, "max concurrently running jobs (K)")
	budget := flag.Int("budget", runtime.GOMAXPROCS(0), "global sweep-worker budget shared by running jobs")
	storeDir := flag.String("store-dir", "", "persistent store directory: terminal results, and the queue across a drain (empty = nothing outlives the process)")
	classes := classFlags{}
	flag.Var(classes, "class", "resource class as name=workers (repeatable, e.g. -class small=2 -class large=6)")
	report := flag.Int("report", 5, "metrics sampling cadence in steps")
	snapshotEvery := flag.Int("snapshot-every", 50, "safety-snapshot cadence in steps for automatic retries (0 = off)")
	stallTimeout := flag.Duration("stall-timeout", 0, "watchdog: max wall-clock gap between timestep boundaries before a job is declared stalled (0 = watchdog off)")
	chaos := flag.Bool("chaos", false, "accept fault-injection specs (deterministic failure drills; never in production)")
	debugAddr := flag.String("debug-addr", "", "listen address for net/http/pprof profiling endpoints (empty = off; bind to localhost, the profiles are unauthenticated)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "result-store byte quota: oldest terminal results are evicted to fit (0 = unbounded)")
	storeMaxAge := flag.Duration("store-max-age", 0, "result-store age bound: stored results older than this are dropped (0 = keep forever)")
	storeGCEvery := flag.Duration("store-gc-every", 0, "periodic result-store retention GC cadence (0 = GC once at startup only)")
	gateway := flag.String("gateway", "", "federation gateway base URL to announce this daemon to (empty = standalone)")
	fleetToken := flag.String("fleet-token", "", "bearer token authenticating registration with -gateway")
	advertise := flag.String("advertise", "", "base URL the gateway should reach this daemon at (required with -gateway, e.g. http://10.0.0.5:8080)")
	announceEvery := flag.Duration("announce-every", 5*time.Second, "registration heartbeat interval to -gateway")
	flag.Parse()

	if *gateway != "" && *advertise == "" {
		fatal(errors.New("-gateway requires -advertise (the URL the gateway reaches this daemon at)"))
	}

	srv := jobd.New(jobd.Config{
		MaxConcurrent:   *jobs,
		Budget:          *budget,
		StoreDir:        *storeDir,
		Classes:         classes,
		ReportEvery:     *report,
		SnapshotEvery:   *snapshotEvery,
		StallTimeout:    *stallTimeout,
		AllowFaults:     *chaos,
		StoreGCMaxBytes: *storeMaxBytes,
		StoreGCMaxAge:   *storeMaxAge,
		StoreGCEvery:    *storeGCEvery,
		Log:             func(msg string) { fmt.Fprintln(os.Stderr, msg) },
	})
	if n, err := srv.LoadStore(); err != nil {
		fatal(err)
	} else if n > 0 {
		fmt.Printf("solidifyd: restored %d stored job(s) from %s\n", n, *storeDir)
	}
	srv.Start()

	// Server-side timeouts: slowloris-style clients must not pin
	// connections forever. The write timeout is generous because /result
	// ships multi-MB checkpoints; the long-lived /jobs/{id}/metrics stream
	// extends its own deadline per sample via a ResponseController.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("solidifyd: listening on %s (jobs=%d budget=%d classes=%v)\n",
			*addr, *jobs, *budget, classes)
		errCh <- httpSrv.ListenAndServe()
	}()

	// The profiling endpoints live on their own listener so they are never
	// exposed on the API address by accident: kernel and halo hot spots are
	// inspected with `go tool pprof http://<debug-addr>/debug/pprof/profile`
	// while jobs run. An explicit mux, not DefaultServeMux — the API server
	// must stay pprof-free.
	if *debugAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Printf("solidifyd: pprof on %s/debug/pprof/\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				fmt.Fprintln(os.Stderr, "solidifyd: pprof listener:", err)
			}
		}()
	}

	// Fleet membership: heartbeat our advertised URL to the gateway so it
	// probes us and fans array children our way. The heartbeat doubles as
	// re-registration after a gateway restart.
	announceStop := make(chan struct{})
	if *gateway != "" {
		go fleet.Announce(*gateway, *fleetToken, *advertise, *announceEvery, announceStop,
			func(format string, args ...any) { fmt.Fprintf(os.Stderr, "solidifyd: "+format+"\n", args...) })
		fmt.Printf("solidifyd: announcing %s to gateway %s\n", *advertise, *gateway)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigCh:
		close(announceStop)
		fmt.Printf("solidifyd: %v — draining (checkpointing in-flight jobs)\n", sig)
		if err := srv.Drain(); err != nil {
			fmt.Fprintln(os.Stderr, "solidifyd: drain:", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		fmt.Println("solidifyd: drained, exiting")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "solidifyd:", err)
	os.Exit(1)
}
