package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/simcache"
	"github.com/gables-model/gables/internal/web"
)

// syncBuffer is a goroutine-safe writer the lifecycle tests poll while
// run is serving on another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var urlLine = regexp.MustCompile(`http://([^/\s]+)/`)

// waitForAddr polls the startup output until the nth serving URL appears.
func waitForAddr(t *testing.T, out *syncBuffer, n int) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := urlLine.FindAllStringSubmatch(out.String(), -1); len(m) >= n {
			return m[n-1][1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("server never announced listener %d; output: %q", n, out.String())
	return ""
}

// startRun launches run on a background goroutine and returns the error
// channel carrying its exit.
func startRun(ctx context.Context, addr string, pprofPort int, opts web.Options, out io.Writer) chan error {
	done := make(chan error, 1)
	go func() { done <- run(ctx, addr, pprofPort, opts, out) }()
	return done
}

func waitExit(t *testing.T, done chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after context cancellation")
		return nil
	}
}

func TestServerTimeoutsConfigured(t *testing.T) {
	srv := newServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("server must carry hardening timeouts, got %+v", srv)
	}
}

// The full lifecycle: serve, answer requests, then exit cleanly when the
// signal context is canceled (the SIGINT/SIGTERM path).
func TestRunServeAndGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := startRun(ctx, "127.0.0.1:0", 0, web.Options{}, out)

	host := waitForAddr(t, out, 1)
	resp, err := http.Get("http://" + host + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET / = %d, want 200", resp.StatusCode)
	}

	cancel()
	if err := waitExit(t, done); err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("shutdown not announced; output: %q", out.String())
	}
}

// The pprof listener serves on its own port and shuts down with the rest.
func TestRunWithPprofListener(t *testing.T) {
	port := freePort(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := startRun(ctx, "127.0.0.1:0", port, web.Options{}, out)

	waitForAddr(t, out, 2) // pprof announced second
	resp, err := http.Get(fmt.Sprintf("http://localhost:%d/debug/pprof/", port))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d, want 200", resp.StatusCode)
	}

	cancel()
	if err := waitExit(t, done); err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
}

// A listener that cannot bind must surface its error instead of serving.
func TestRunListenFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := run(context.Background(), ln.Addr().String(), 0, web.Options{}, io.Discard); err == nil {
		t.Fatal("binding an in-use address must fail")
	}
}

// A pprof listener that cannot bind must tear the main server down too.
func TestRunPprofListenFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	port := ln.Addr().(*net.TCPAddr).Port
	err = run(context.Background(), "127.0.0.1:0", port, web.Options{}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "pprof") {
		t.Fatalf("want a pprof bind error, got %v", err)
	}
}

// freePort reserves then releases an ephemeral port for the pprof flag
// (which takes a port number, not an address).
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

// TestSelectBackend is the flag-parse-time gate: every registered backend
// name (surrogate included) is accepted, anything else fails immediately
// with the allowed set.
func TestSelectBackend(t *testing.T) {
	defer func() {
		if err := eval.SetDefault("sim"); err != nil {
			t.Fatal(err)
		}
	}()
	valid := append([]string{""}, eval.Names()...)
	for _, name := range valid {
		if err := selectBackend(name); err != nil {
			t.Errorf("selectBackend(%q) = %v, want nil", name, err)
		}
	}
	for _, name := range []string{"bogus", "SIM", "simulator"} {
		err := selectBackend(name)
		if err == nil {
			t.Errorf("selectBackend(%q) accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "allowed:") || !strings.Contains(err.Error(), "surrogate") {
			t.Errorf("selectBackend(%q) error %q does not list the allowed set", name, err)
		}
	}
}

// TestCacheDirFromEnv pins the startup wiring replicas share sim work
// through: with GABLES_CACHE_DIR set, a sim /eval answered by the
// configured server writes its run to that directory, where another
// replica pointed at it finds the entry instead of simulating.
func TestCacheDirFromEnv(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(simcache.EnvDir, dir)
	t.Cleanup(simcache.DisableDisk)
	simcache.ResetDefault() // the run must miss memory to reach the disk layer

	opts, err := configure("", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := startRun(ctx, "127.0.0.1:0", 0, opts, out)

	host := waitForAddr(t, out, 1)
	resp, err := http.Get("http://" + host + "/eval?backend=sim&f=0.375&fpw=96")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /eval = %d: %s", resp.StatusCode, body)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatalf("no cache entry written to GABLES_CACHE_DIR %s", dir)
	}

	cancel()
	if err := waitExit(t, done); err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
}
