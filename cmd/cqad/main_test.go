package main

import (
	"bufio"
	"io"
	"log"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRunStopsOnSIGTERM pins the service-manager stop path: SIGTERM (what
// kill, systemd and Kubernetes send) shuts run down through the graceful
// Shutdown path, returning nil like an interrupt does.
func TestRunStopsOnSIGTERM(t *testing.T) {
	pr, pw := io.Pipe()
	log.SetOutput(pw)
	defer func() {
		log.SetOutput(os.Stderr)
		pw.Close()
	}()

	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0"}) }()

	// The listening line is logged after the signal handler is installed,
	// so the SIGTERM below cannot reach the default (fatal) disposition.
	listening := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "listening") {
				close(listening)
				break
			}
		}
		io.Copy(io.Discard, pr)
	}()
	select {
	case <-listening:
	case err := <-done:
		t.Fatalf("run returned before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no listening line within 10s")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return within 10s of SIGTERM")
	}
}

// TestHTTPServerTimeouts pins the listener deadlines of the server run
// builds: headers and idle keep-alives are bounded, while whole-request
// reads and response writes are not, so SSE streams stay open and large
// creates can upload.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer("127.0.0.1:0", newServer(config{}))
	if hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout < 120*time.Second {
		t.Errorf("IdleTimeout = %v, want >= 120s", hs.IdleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout/WriteTimeout = %v/%v, want none", hs.ReadTimeout, hs.WriteTimeout)
	}
}
