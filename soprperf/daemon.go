package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sopr/client"
)

// daemon is a soprd subprocess serving one data directory.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once Wait has returned
	log    *tailBuffer
}

// fsyncPolicy is soprd's default flush policy, stated in every result.
const fsyncPolicy = "always"

// startDaemon starts soprd on dir with a kernel-chosen loopback port and
// returns once it listens.
func startDaemon(bin, dir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dir, "-fsync", fsyncPolicy)
	// Should the benchmark die without cleaning up, the kernel kills soprd.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), log: &tailBuffer{}}
	addrc := make(chan string, 1)
	go func() {
		// soprd logs "listening on <addr>" once the listener is up; the
		// rest of its log is kept for error messages.
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.log.add(line)
			if i := strings.Index(line, "listening on "); i >= 0 && !sent {
				addrc <- strings.TrimSpace(line[i+len("listening on "):])
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // a scanner error leaves bytes behind; keep soprd unblocked
		_ = cmd.Wait()                     // the exit status of a killed daemon carries no information
		close(d.exited)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("soprd exited before listening: %s", d.log)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("soprd did not listen within 60s: %s", d.log)
	}
}

// dial connects a client to the daemon.
func (d *daemon) dial() (*client.Client, error) {
	return client.Dial(d.addr, client.WithTimeout(60*time.Second))
}

// kill sends SIGKILL and waits until the process has exited. Killing
// leaves the OS page cache intact: this is a process crash, not a power
// loss.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // fails only if already exited
	<-d.exited
}

// stop shuts soprd down gracefully (SIGTERM: drain, final checkpoint)
// and waits until it has exited.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("soprd did not stop within 60s: %s", d.log)
	}
	if !d.cmd.ProcessState.Success() {
		return fmt.Errorf("soprd shutdown failed (%v): %s", d.cmd.ProcessState, d.log)
	}
	return nil
}

// peakRSSMB reads the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// tailBuffer keeps the last lines of a log.
type tailBuffer struct {
	lines []string
}

func (t *tailBuffer) add(line string) {
	if t.lines = append(t.lines, line); len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string { return strings.Join(t.lines, " | ") }
