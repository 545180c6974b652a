// Command mgserve runs the solver service: the multigrid library behind an
// HTTP API with hierarchy caching and admission control.
//
// Server:
//
//	mgserve -addr :8080
//	curl -s localhost:8080/solve -d '{"problem":"7pt","size":16,"method":"mult"}'
//	curl -s --data-binary @system.mtx.gz -H 'Content-Encoding: gzip' \
//	    'localhost:8080/solve/matrix?method=mult&cycles=30'
//	curl -s localhost:8080/metrics
//
// Cluster router (consistent-hash routing over N solver nodes, with
// hierarchy replication, hedged failover, circuit breaking, and local
// fallback under full partition — see internal/cluster):
//
//	mgserve -cluster -addr :8080 -peers host1:8081,host2:8082,host3:8083 -replicas 2
//	curl -s localhost:8080/cluster
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"asyncmg/internal/cluster"
	"asyncmg/internal/obs"
	"asyncmg/internal/par"
	"asyncmg/internal/serve"
	"asyncmg/internal/solve"
)

// mode is what the flags select beyond the serve.Config: which tier this
// process runs and where it listens.
type mode struct {
	addr       string
	parWorkers int
	cluster    bool           // serve the routing tier instead of a solver node
	peers      []cluster.Node // cluster: the solver fleet
	replicas   int            // cluster: owners per shard
}

// parseFlags turns the command line into the service configuration. Every
// bad combination is an error here, before anything listens.
func parseFlags(args []string) (serve.Config, mode, error) {
	fs := flag.NewFlagSet("mgserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // errors are returned, not printed

	var m mode
	fs.StringVar(&m.addr, "addr", "localhost:8080", "listen address")
	cacheSize := fs.Int("cache", 8, "hierarchy LRU capacity (setups)")
	maxQueue := fs.Int("queue", 64, "admission queue bound (excess requests get 429)")
	workers := fs.Int("workers", 0, "concurrent solve bound (0 = GOMAXPROCS)")
	timeout := fs.Duration("max-timeout", 60*time.Second, "per-request deadline cap and default")
	fs.IntVar(&m.parWorkers, "par-workers", 0, "worker-pool size for sharded kernels (0 = GOMAXPROCS)")
	var setup solve.SetupFlags
	setup.Bind(fs)

	fs.BoolVar(&m.cluster, "cluster", false, "serve the routing tier instead of a node (requires -peers)")
	peers := fs.String("peers", "", "cluster: comma-separated peer node addresses (host:port)")
	fs.IntVar(&m.replicas, "replicas", 2, "cluster: owners per shard (primary + warm secondaries)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(os.Stderr)
			fs.Usage()
		}
		return serve.Config{}, mode{}, err
	}

	opt, err := setup.AMG()
	if err != nil {
		return serve.Config{}, mode{}, err
	}
	cfg := serve.Config{
		CacheSize:  *cacheSize,
		MaxQueue:   *maxQueue,
		Workers:    *workers,
		MaxTimeout: *timeout,
		Observer:   obs.New(32),
		AMG:        opt,
		MatrixFree: setup.MatrixFree,
	}
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			m.peers = append(m.peers, cluster.Node{Addr: p})
		}
	}
	if m.cluster && len(m.peers) == 0 {
		return serve.Config{}, mode{}, fmt.Errorf("-cluster needs -peers host:port[,host:port...]")
	}
	return cfg, m, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mgserve: ")

	cfg, m, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	par.SetWorkers(m.parWorkers)

	if m.cluster {
		if err := runCluster(m, cfg); err != nil {
			log.Fatal(err)
		}
		return
	}

	s := serve.New(cfg)
	l, err := net.Listen("tcp", m.addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on http://%s (POST /solve, POST /solve/matrix, GET /healthz, GET /metrics)", l.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	select {
	case err := <-done:
		log.Fatal(err)
	case sig := <-stop:
		log.Printf("%v: draining (in-flight solves finish, new requests get 503)", sig)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.MaxTimeout)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			log.Fatalf("drain: %v", err)
		}
		log.Print("drained cleanly")
	}
}
