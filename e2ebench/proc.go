package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// startTimeout bounds how long a server may take to print its listen
// line, recovery included.
const startTimeout = 60 * time.Second

// Startup lines of mtx-kv, from which the benchmark learns the bound
// addresses (every server listens on 127.0.0.1:0).
var (
	serveLine   = regexp.MustCompile(`serving \S+ engine, (\d+) shards on (\S+), durability`)
	replicaLine = regexp.MustCompile(`\((\d+) shards, \S+ engine\) serving reads on (\S+)$`)
	shipLine    = regexp.MustCompile(`shipping WAL to replicas on (\S+)$`)
)

// proc is one running mtx-kv process.
type proc struct {
	cmd      *exec.Cmd
	addr     string // line-protocol address
	replAddr string // WAL shipping address, when started with -replicate-addr
	shards   int
	done     chan struct{} // closed once the process has been waited for
}

// procSet owns every process the run starts, so each is killed and
// waited for on every exit path.
type procSet struct {
	mu    sync.Mutex
	procs map[*proc]struct{}
}

// start execs bin with args and waits for its listen line.
func (ps *procSet) start(ctx context.Context, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The kernel kills the server if the benchmark dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s %s: %w", bin, args[0], err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	ps.mu.Lock()
	if ps.procs == nil {
		ps.procs = map[*proc]struct{}{}
	}
	ps.procs[p] = struct{}{}
	ps.mu.Unlock()

	ready := make(chan error, 1)
	go func() {
		ready <- p.scanStartup(out)
		// Keep draining so the server never blocks on a full pipe; Wait
		// runs only after the pipe is drained.
		io.Copy(io.Discard, out)
		cmd.Wait()
		close(p.done)
	}()
	timer := time.NewTimer(startTimeout)
	defer timer.Stop()
	select {
	case err = <-ready:
	case <-timer.C:
		err = errors.New("no listen line before the start timeout")
	case <-ctx.Done():
		err = ctx.Err()
	}
	if err != nil {
		ps.kill(p)
		return nil, fmt.Errorf("mtx-kv %s: %w", strings.Join(args, " "), err)
	}
	return p, nil
}

// scanStartup reads stdout until the listen line.
func (p *proc) scanStartup(out io.Reader) error {
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if m := shipLine.FindStringSubmatch(line); m != nil {
			p.replAddr = m[1]
			continue
		}
		m := serveLine.FindStringSubmatch(line)
		if m == nil {
			m = replicaLine.FindStringSubmatch(line)
		}
		if m != nil {
			p.shards, _ = strconv.Atoi(m[1])
			p.addr = m[2]
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("exited before its listen line")
}

// kill SIGKILLs p and waits until it has exited.
func (ps *procSet) kill(p *proc) {
	p.cmd.Process.Kill()
	<-p.done
	ps.mu.Lock()
	delete(ps.procs, p)
	ps.mu.Unlock()
}

// killAll kills every process still running.
func (ps *procSet) killAll() {
	ps.mu.Lock()
	procs := make([]*proc, 0, len(ps.procs))
	for p := range ps.procs {
		procs = append(procs, p)
	}
	ps.mu.Unlock()
	for _, p := range procs {
		ps.kill(p)
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func (p *proc) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/PID/stat times;
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime reads the process's user+system CPU time.
func (p *proc) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", s)
	}
	var ticks int64
	for _, x := range f[11:13] {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// copyDir copies the regular files under src to dst, keeping the layout.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}
