package main

import (
	"context"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"asyncmg/internal/cluster"
	"asyncmg/internal/serve"
)

// runCluster serves the fault-tolerant routing tier: consistent-hash
// forwarding to the peer fleet, with an embedded local engine as the
// full-partition fallback.
func runCluster(m mode, cfg serve.Config) error {
	rt, err := cluster.New(cluster.Config{
		Nodes:      m.peers,
		Replicas:   m.replicas,
		Observer:   cfg.Observer,
		Local:      serve.New(cfg),
		MaxTimeout: cfg.MaxTimeout,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	l, err := net.Listen("tcp", m.addr)
	if err != nil {
		return err
	}
	log.Printf("cluster router on http://%s -> %d peers, RF=%d (POST /solve, GET /cluster, GET /metrics)",
		l.Addr(), len(m.peers), m.replicas)

	srv := &http.Server{Handler: rt.Handler()}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case err := <-done:
		return err
	case sig := <-stop:
		log.Printf("%v: stopping router", sig)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.MaxTimeout)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}
