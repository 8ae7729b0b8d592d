// Command lnsd runs the network-server daemon: an HTTP(+JSON) LNS-style
// service around internal/netserver (via internal/lns) that ingests
// batched uplink reports, recomputes per-node degradation on the
// virtual clock carried by the traffic, disseminates the quantized w_u
// table, and snapshots/restores its full per-node state across
// restarts.
//
// Usage:
//
//	lnsd -addr 127.0.0.1:8080
//	lnsd -addr 127.0.0.1:8080 -lns-shards 4            # 4 node-ID-range worker lanes
//	lnsd -addr 127.0.0.1:8080 -restore snap.json      # resume from a snapshot
//	lnsd -addr 127.0.0.1:8080 -snapshot-exit snap.json # persist on SIGTERM
//
// See internal/lns.Daemon.Handler for the endpoint list; cmd/loadgen is
// the replay client (obs JSONL exports are the traffic format).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/lns"
	"repro/internal/netserver"
	"repro/internal/simtime"
)

// Server timeouts. A client that trickles its headers or body, or parks
// an idle keep-alive connection, is disconnected instead of holding a
// goroutine and a file descriptor for as long as it likes. ReadTimeout
// covers the whole request including the body, which maxBodyBytes in
// internal/lns caps at 64 MB.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// newServer builds the daemon's HTTP server with the timeouts above.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// writeFileAtomic replaces path with what write produces, or leaves it
// untouched: the bytes go to a temporary file in the same directory,
// which is fsynced and then renamed over path, and the directory is
// fsynced so the rename itself survives a crash.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lnsd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		tempC      = flag.Float64("temp", 25, "battery temperature in Celsius")
		interval   = flag.Duration("interval", 24*time.Hour, "w_u recompute interval in simulated time")
		shards     = flag.Int("lns-shards", 1, "node-ID-range shards (worker lanes); 1 = single-lane determinism oracle")
		queue      = flag.Int("queue", 256, "per-shard ingest lane depth in batches before 429 backpressure")
		retryAfter = flag.Duration("retry-after", time.Second, "Retry-After hint sent with 429")
		restore    = flag.String("restore", "", "snapshot file to restore state from at boot")
		snapExit   = flag.String("snapshot-exit", "", "snapshot file to write on graceful shutdown")
	)
	flag.Parse()

	d, err := lns.NewDaemon(lns.Config{
		TempC:      *tempC,
		Interval:   simtime.FromDuration(*interval),
		Shards:     *shards,
		QueueDepth: *queue,
		RetryAfter: *retryAfter,
	})
	if err != nil {
		return err
	}
	defer d.Close()

	if *restore != "" {
		data, err := os.ReadFile(*restore)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		var snap netserver.Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("restore %s: %w", *restore, err)
		}
		if err := d.RestoreState(&snap); err != nil {
			return fmt.Errorf("restore %s: %w", *restore, err)
		}
		log.Printf("lnsd: restored %d nodes from %s", len(snap.Nodes), *restore)
	}

	srv := newServer(*addr, d.Handler())
	errCh := make(chan error, 1)
	go func() {
		log.Printf("lnsd: listening on %s (%d shard(s))", *addr, *shards)
		errCh <- srv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		log.Printf("lnsd: %v, shutting down", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}

	if *snapExit != "" {
		snap, err := d.SnapshotState()
		if err != nil {
			return fmt.Errorf("snapshot-exit: %w", err)
		}
		err = writeFileAtomic(*snapExit, func(w io.Writer) error {
			return json.NewEncoder(w).Encode(snap)
		})
		if err != nil {
			return fmt.Errorf("snapshot-exit: %w", err)
		}
		log.Printf("lnsd: wrote snapshot to %s", *snapExit)
	}
	return nil
}
