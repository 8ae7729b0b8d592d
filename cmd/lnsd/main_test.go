package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/lns"
)

// startServer serves the daemon's handler through newServer on a
// loopback port and returns the listen address.
func startServer(t *testing.T) string {
	t.Helper()
	d, err := lns.NewDaemon(lns.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(ln.Addr().String(), d.Handler())
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestServerDisconnectsSlowHeaders checks that a client trickling its
// request headers one byte at a time is cut off once readHeaderTimeout
// expires, while a well-behaved client on the same server is served.
func TestServerDisconnectsSlowHeaders(t *testing.T) {
	addr := startServer(t)

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		msg := "GET /healthz HTTP/1.1\r\nHost: lnsd\r\nX-Slow: " + strings.Repeat("a", 1000)
		for i := range len(msg) {
			if _, err := conn.Write([]byte{msg[i]}); err != nil {
				return
			}
			time.Sleep(100 * time.Millisecond)
		}
	}()

	// The server must close the connection (possibly after a 408
	// response) within the header timeout plus slack; a read deadline
	// that fires first means the slow client was still connected.
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	_, err = io.Copy(io.Discard, conn)
	conn.Close()
	<-done
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("slow client still connected after %v", time.Since(start))
	}
	if took := time.Since(start); took < readHeaderTimeout {
		t.Fatalf("slow client dropped after %v, before the %v header timeout", took, readHeaderTimeout)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}

	if err := writeFileAtomic(path, write("first\n")); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(path, write("second\n")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second\n" {
		t.Fatalf("snapshot = %q, want %q", got, "second\n")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o644 {
		t.Errorf("mode %v, want 0644", perm)
	}

	// A write that fails part-way must leave the previous snapshot
	// intact and no temporary file behind.
	boom := errors.New("encoder failed")
	err = writeFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "par")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got, _ := os.ReadFile(path); string(got) != "second\n" {
		t.Fatalf("failed write clobbered the snapshot: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only snap.json", names)
	}

	// A missing directory is an error, not a silent no-op.
	if err := writeFileAtomic(filepath.Join(dir, "nope", "snap.json"), write("x")); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}
