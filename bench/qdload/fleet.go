package main

// Process hygiene for the programs under test: free ports, one log file per
// child, health waits with a deadline that abort as soon as a child dies,
// and group kills on every exit path (normal, error, SIGINT).

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// binaries are the shipped programs the served workloads drive.
var binaries = []string{"qdbuild", "qdserve", "qdrouter"}

// buildBinaries compiles the shipped binaries from the checkout's own source
// into binDir. It runs before any clock starts.
func buildBinaries(repoRoot, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return err
	}
	args := []string{"build", "-o", abs + string(os.PathSeparator)}
	for _, b := range binaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build of %v failed: %v\n%s", binaries, err, out)
	}
	return nil
}

// freeAddr asks the kernel for an unused loopback port (bind :0, close) and
// returns it as host:port for a child's -addr flag.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// proc is one running child.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed when the child has been waited for
	err  error         // Wait's result, valid after done
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// fleet owns every child of one workload set-up.
type fleet struct {
	binDir, logDir string
	mu             sync.Mutex // stop may race the signal handler's killAllFleets
	procs          []*proc
}

// served is the part every served workload shares: it owns one fleet per
// set-up and stops it on teardown.
type served struct{ fl *fleet }

func (s *served) teardown() {
	if s.fl != nil {
		s.fl.stop()
		s.fl = nil
	}
}

var (
	liveMu     sync.Mutex
	liveFleets = map[*fleet]bool{}
)

func newFleet(binDir, logDir string) (*fleet, error) {
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{binDir: binDir, logDir: logDir}
	liveMu.Lock()
	liveFleets[f] = true
	liveMu.Unlock()
	return f, nil
}

// killAllFleets is the SIGINT/fatal path: no child outlives the harness.
func killAllFleets() {
	liveMu.Lock()
	fleets := make([]*fleet, 0, len(liveFleets))
	for f := range liveFleets {
		fleets = append(fleets, f)
	}
	liveMu.Unlock()
	for _, f := range fleets {
		f.stop()
	}
}

// start launches a child in its own process group with stdout+stderr
// captured to <logDir>/<name>.log.
func (f *fleet) start(name, bin string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(f.logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(f.binDir, bin), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Own process group, so stop can signal the child and anything it forks;
	// Pdeathsig covers the harness itself being SIGKILLed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	f.procs = append(f.procs, p)
	return p, nil
}

// run launches a child and waits for it to finish (qdbuild).
func (f *fleet) run(name, bin string, args ...string) error {
	p, err := f.start(name, bin, args...)
	if err != nil {
		return err
	}
	<-p.done
	if p.err != nil {
		return fmt.Errorf("%s failed: %v (see %s)", name, p.err, p.log.Name())
	}
	return nil
}

// errChildExited names the child that died while the harness still needed it.
type errChildExited struct{ name, log string }

func (e errChildExited) Error() string {
	return fmt.Sprintf("child %s exited early (see %s)", e.name, e.log)
}

// checkAlive reports the first long-running child that has exited.
func checkAlive(servers ...*proc) error {
	for _, p := range servers {
		if p.exited() {
			return errChildExited{p.name, p.log.Name()}
		}
	}
	return nil
}

// waitHealthy polls base/healthz until it answers 200, the deadline passes,
// or the child exits.
func (f *fleet) waitHealthy(p *proc, base string, deadline time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	for {
		if p.exited() {
			return errChildExited{p.name, p.log.Name()}
		}
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s: /healthz not ok within %v (see %s)", p.name, deadline, p.log.Name())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop terminates every child: SIGTERM to each group, a bounded wait for the
// graceful drain, then SIGKILL. It returns once every child has been reaped.
func (f *fleet) stop() {
	liveMu.Lock()
	delete(liveFleets, f)
	liveMu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range f.procs {
		if !p.exited() {
			_ = syscall.Kill(-p.pid(), syscall.SIGTERM)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for _, p := range f.procs {
		select {
		case <-p.done:
		case <-time.After(time.Until(deadline)):
			_ = syscall.Kill(-p.pid(), syscall.SIGKILL)
			<-p.done
		}
		p.log.Close()
	}
	f.procs = nil
}
