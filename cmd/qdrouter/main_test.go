package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"qdcbir"
	"qdcbir/internal/router"
	"qdcbir/internal/server"
)

// TestReplicaFlagsSet parses repeated -replica values the way the flag
// package hands them over, in order, splitting each at its first '='.
func TestReplicaFlagsSet(t *testing.T) {
	var got replicaFlags
	fs := flag.NewFlagSet("qdrouter", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Var(&got, "replica", "")
	err := fs.Parse([]string{
		"-replica", "0=http://localhost:8401",
		"-replica", "2=http://10.0.0.2:8403/base?x=y",
		"-replica", "0=http://localhost:8404",
		"-replica", "+1=http://h",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := replicaFlags{
		{Shard: 0, URL: "http://localhost:8401"},
		{Shard: 2, URL: "http://10.0.0.2:8403/base?x=y"},
		{Shard: 0, URL: "http://localhost:8404"},
		{Shard: 1, URL: "http://h"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
}

// TestReplicaFlagsSetRejects: a value without '=', or whose shard is empty,
// negative or not a decimal integer, is an error and adds no replica.
func TestReplicaFlagsSetRejects(t *testing.T) {
	for _, v := range []string{
		"",
		"http://localhost:8401",
		"=http://localhost:8401",
		"-1=http://localhost:8401",
		"one=http://localhost:8401",
		"1.5=http://localhost:8401",
		" 1=http://localhost:8401",
		"0x1=http://localhost:8401",
		"99999999999999999999=http://localhost:8401",
	} {
		var f replicaFlags
		if err := f.Set(v); err == nil {
			t.Errorf("Set(%q) accepted: %+v", v, f)
		} else if len(f) != 0 {
			t.Errorf("Set(%q) failed but kept %+v", v, f)
		}
	}
}

// TestReplicaFlagsString: String renders shard=url joined by commas, and
// each rendered part parses back to the replica it came from.
func TestReplicaFlagsString(t *testing.T) {
	var empty replicaFlags
	if s := empty.String(); s != "" {
		t.Fatalf("empty String() = %q", s)
	}
	f := replicaFlags{
		{Shard: 0, URL: "http://localhost:8401"},
		{Shard: 12, URL: "http://10.0.0.2:8403/base?x=y"},
	}
	s := f.String()
	if want := "0=http://localhost:8401,12=http://10.0.0.2:8403/base?x=y"; s != want {
		t.Fatalf("String() = %q, want %q", s, want)
	}
	var back replicaFlags
	for _, part := range strings.Split(s, ",") {
		if err := back.Set(part); err != nil {
			t.Fatalf("Set(%q): %v", part, err)
		}
	}
	if !reflect.DeepEqual(back, f) {
		t.Fatalf("round trip %+v, want %+v", back, f)
	}
}

// TestAwaitFleetLateReplica: a replica that starts listening ~200 ms after
// the router began verifying is verified within one retry interval of it
// coming up, not a fixed sleep later.
func TestAwaitFleetLateReplica(t *testing.T) {
	cfg := qdcbir.SmallConfig()
	cfg.VectorMode = true
	cfg.Images = 300
	cfg.Categories = 6
	sys, err := qdcbir.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	archives, err := qdcbir.SliceShards(context.Background(), sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	handlers := make([]http.Handler, len(archives))
	for i, a := range archives {
		var buf bytes.Buffer
		if err := a.Write(&buf); err != nil {
			t.Fatal(err)
		}
		rep, _, err := qdcbir.OpenShard(&buf)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rep.Close() })
		handlers[i] = server.NewShard(rep, nil).Handler()
	}
	early := httptest.NewServer(handlers[0])
	t.Cleanup(early.Close)
	// Reserve an address for the late replica, then free it: until the
	// replica listens there, connections to it are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lateAddr := ln.Addr().String()
	ln.Close()

	rt, err := router.New(router.Config{Replicas: []router.ReplicaConfig{
		{Shard: 0, URL: early.URL},
		{Shard: 1, URL: "http://" + lateAddr},
	}})
	if err != nil {
		t.Fatal(err)
	}
	up := make(chan time.Time, 1)
	late := &http.Server{Handler: handlers[1]}
	t.Cleanup(func() { late.Close() })
	go func() {
		time.Sleep(200 * time.Millisecond)
		ln, err := net.Listen("tcp", lateAddr)
		if err != nil {
			up <- time.Time{}
			return
		}
		up <- time.Now()
		late.Serve(ln)
	}()
	var log bytes.Buffer
	if err := awaitFleet(context.Background(), rt.VerifyFleet, 10*time.Second, slog.New(slog.NewTextHandler(&log, nil))); err != nil {
		t.Fatalf("awaitFleet: %v", err)
	}
	verified := time.Now()
	listening := <-up
	if listening.IsZero() {
		t.Skipf("address %s was taken before the late replica could listen", lateAddr)
	}
	lag := verified.Sub(listening)
	t.Logf("verified %v after the late replica listened", lag)
	if lag > retryMax+200*time.Millisecond {
		t.Fatalf("verified %v after the late replica listened; the retry interval is at most %v", lag, retryMax)
	}
	if !strings.Contains(log.String(), "fleet not ready") {
		t.Errorf("no \"fleet not ready\" line while the replica was down:\n%s", log.String())
	}
}

// TestAwaitFleetExpires: once -wait has passed, awaitFleet gives up with the
// last error verification returned.
func TestAwaitFleetExpires(t *testing.T) {
	calls := 0
	verify := func(context.Context) error {
		calls++
		return fmt.Errorf("attempt %d refused", calls)
	}
	start := time.Now()
	err := awaitFleet(context.Background(), verify, 150*time.Millisecond, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err == nil || err.Error() != fmt.Sprintf("attempt %d refused", calls) {
		t.Fatalf("awaitFleet = %v after %d attempts, want the last attempt's error", err, calls)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond || calls < 3 {
		t.Fatalf("gave up after %v and %d attempts", elapsed, calls)
	}
	calls = 0
	if err := awaitFleet(context.Background(), verify, 0, slog.New(slog.NewTextHandler(io.Discard, nil))); err == nil || calls != 1 {
		t.Fatalf("-wait 0: %v after %d attempts, want one failed attempt", err, calls)
	}
}

// TestAwaitFleetLogsOncePerSecond: a fleet that stays down for a 2 s wait
// logs "fleet not ready" at most twice, not once per attempt.
func TestAwaitFleetLogsOncePerSecond(t *testing.T) {
	if testing.Short() {
		t.Skip("waits 2 s")
	}
	calls := 0
	verify := func(context.Context) error { calls++; return errors.New("connection refused") }
	var log bytes.Buffer
	if err := awaitFleet(context.Background(), verify, 2*time.Second, slog.New(slog.NewTextHandler(&log, nil))); err == nil {
		t.Fatal("a fleet that never came up was verified")
	}
	lines := strings.Count(log.String(), "fleet not ready")
	t.Logf("%d attempts, %d log lines", calls, lines)
	if lines < 1 || lines > 2 {
		t.Fatalf("%d \"fleet not ready\" lines over a 2 s wait (%d attempts):\n%s", lines, calls, log.String())
	}
}

// TestMainExitsOnExpiredWait runs qdrouter's main against a replica that
// never comes up: it must exit non-zero and log the last error.
func TestMainExitsOnExpiredWait(t *testing.T) {
	if os.Getenv("QDROUTER_TEST_MAIN") == "1" {
		os.Args = append([]string{"qdrouter"}, strings.Fields(os.Getenv("QDROUTER_TEST_ARGS"))...)
		main()
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(os.Args[0], "-test.run=^TestMainExitsOnExpiredWait$")
	cmd.Env = append(os.Environ(), "QDROUTER_TEST_MAIN=1",
		"QDROUTER_TEST_ARGS=-addr 127.0.0.1:0 -wait 300ms -replica 0=http://"+dead)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("qdrouter exited with %v, want status 1; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "fleet verification failed") || !strings.Contains(stderr.String(), dead) {
		t.Fatalf("stderr does not name the failure and the replica:\n%s", stderr.String())
	}
}
