package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot finds the module root (the directory holding go.mod) at or
// above the working directory: the harness builds cmd/ltreed from it
// and keeps every file it writes below it.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "ltreed")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no go.mod with cmd/ltreed at or above the working directory; run from the repository")
		}
		dir = parent
	}
}

// buildLtreed compiles cmd/ltreed from source into bench/out/build, once
// per process: the binary keeps its place between runs, so go build
// relinks only when the sources changed.
func buildLtreed(root string) (string, error) {
	build.once.Do(func() {
		build.bin = filepath.Join(root, "bench", "out", "build", "ltreed")
		cmd := exec.Command("go", "build", "-o", build.bin, "./cmd/ltreed")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			build.err = fmt.Errorf("build cmd/ltreed: %w\n%s", err, out)
		}
	})
	return build.bin, build.err
}

var build struct {
	once sync.Once
	bin  string
	err  error
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// node is one ltreed child process.
type node struct {
	cmd  *exec.Cmd
	http string // host:port
	ship string // leader only
	logs *strings.Builder
	done chan struct{} // closed once the process has been reaped
}

// spawn starts ltreed with args plus a fresh -http address and returns
// once /healthz answers. The child dies with the harness (Pdeathsig on
// Linux) and its output is kept for error reports.
func spawn(ctx context.Context, bin string, args ...string) (*node, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	n := &node{http: addr, logs: &strings.Builder{}, done: make(chan struct{})}
	n.cmd = exec.Command(bin, append(args, "-http", addr)...)
	n.cmd.Stdout, n.cmd.Stderr = n.logs, n.logs
	n.cmd.SysProcAttr = childAttr()
	if err := n.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		n.cmd.Wait()
		close(n.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return n, nil
			}
		}
		select {
		case <-n.done:
			return nil, fmt.Errorf("ltreed %v exited during start-up:\n%s", args, n.logs)
		case <-ctx.Done():
			n.kill()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			n.kill()
			return nil, fmt.Errorf("ltreed %v not healthy after 60s:\n%s", args, n.logs)
		}
	}
}

// kill SIGKILLs the process and waits until it has ended. Safe to call
// twice and on a nil node.
func (n *node) kill() {
	if n == nil {
		return
	}
	n.cmd.Process.Signal(syscall.SIGKILL)
	<-n.done
}

// nodeStats is the slice of /v1/stats the harness reads.
type nodeStats struct {
	Seq        uint64 `json:"seq"`
	AppliedSeq uint64 `json:"applied_seq"`
	Lag        uint64 `json:"lag"`
	RootHash   string `json:"root_hash"`
	Error      string `json:"error"`
}

func (n *node) stats() (nodeStats, error) {
	var s nodeStats
	resp, err := http.Get("http://" + n.http + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return s, err
	}
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/v1/stats: %s: %s", resp.Status, body)
	}
	return s, json.Unmarshal(body, &s)
}

// cluster is the set of processes one workload runs against.
type cluster struct {
	bin      string
	dir      string // WAL + seed live here
	seedFile string
	leader   *node
	follower *node
}

// startLeader boots a leader on dir/wal: a first boot seeds the empty
// log from the seed file, a later one recovers from the log.
func (c *cluster) startLeader(ctx context.Context) error {
	ship, err := freeAddr()
	if err != nil {
		return err
	}
	n, err := spawn(ctx, c.bin, "-wal", filepath.Join(c.dir, "wal"), "-seed", c.seedFile, "-ship", ship)
	if err != nil {
		return err
	}
	n.ship = ship
	c.leader = n
	return nil
}

// startFollower attaches a replica and waits until it has caught up.
func (c *cluster) startFollower(ctx context.Context) error {
	n, err := spawn(ctx, c.bin, "-leader", c.leader.ship, "-wait", "10s")
	if err != nil {
		return err
	}
	c.follower = n
	_, err = c.waitCaughtUp(ctx)
	return err
}

// waitCaughtUp polls the follower until it has applied the leader's seq
// and returns the follower's stats at that point.
func (c *cluster) waitCaughtUp(ctx context.Context) (nodeStats, error) {
	ls, err := c.leader.stats()
	if err != nil {
		return nodeStats{}, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		fs, err := c.follower.stats()
		if err != nil {
			return fs, err
		}
		if fs.Error != "" {
			return fs, fmt.Errorf("follower stopped: %s", fs.Error)
		}
		if fs.Lag == 0 && fs.AppliedSeq >= ls.Seq {
			return fs, nil
		}
		if time.Now().After(deadline) {
			return fs, fmt.Errorf("follower still at seq %d of %d after 60s", fs.AppliedSeq, ls.Seq)
		}
		select {
		case <-ctx.Done():
			return fs, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop kills every process. The caller removes the directory.
func (c *cluster) stop() {
	c.follower.kill()
	c.leader.kill()
	c.follower, c.leader = nil, nil
}
