package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// zsdb runs the built zsdb binary as a subprocess, logging its output
// under dir.
type zsdb struct {
	bin string
	dir string
}

// command prepares one zsdb invocation whose output goes to logName.
// The child is killed if the benchmark dies first.
func (z zsdb) command(logName string, args ...string) (*exec.Cmd, *os.File, error) {
	log, err := os.Create(filepath.Join(z.dir, logName))
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(z.bin, args...)
	cmd.Dir = z.dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = log
	cmd.Stderr = log
	return cmd, log, nil
}

// run executes one zsdb command to completion and returns its wall time
// and peak resident memory.
func (z zsdb) run(logName string, args ...string) (time.Duration, float64, error) {
	cmd, log, err := z.command(logName, args...)
	if err != nil {
		return 0, 0, err
	}
	defer log.Close()
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return wall, 0, fmt.Errorf("zsdb %s: %w (see %s)", args[0], err, log.Name())
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return wall, rss, nil
}

func (z zsdb) train(model string) (time.Duration, float64, error) {
	return z.run("train.log", "train",
		"-dbs", strconv.Itoa(params.TrainDBs),
		"-queries", strconv.Itoa(params.TrainQueries),
		"-seed", strconv.FormatInt(params.TrainSeed, 10),
		"-out", model)
}

var medianRE = regexp.MustCompile(`median=([0-9.]+)`)

// eval runs zsdb eval on the unseen IMDB-like database and returns the
// median q-error it prints.
func (z zsdb) eval(model string) (float64, error) {
	if _, _, err := z.run("eval.log", "eval", "-model", model,
		"-queries", strconv.Itoa(params.EvalQueries),
		"-seed", strconv.FormatInt(params.EvalSeed, 10),
		"-dbscale", strconv.FormatFloat(params.DBScale, 'g', -1, 64)); err != nil {
		return 0, err
	}
	out, err := os.ReadFile(filepath.Join(z.dir, "eval.log"))
	if err != nil {
		return 0, err
	}
	m := medianRE.FindSubmatch(out)
	if m == nil {
		return 0, fmt.Errorf("zsdb eval printed no median q-error")
	}
	return strconv.ParseFloat(string(m[1]), 64)
}

// server is one running zsdb serve.
type server struct {
	cmd   *exec.Cmd
	log   *os.File
	base  string
	setup time.Duration
	done  chan error
}

var listenRE = regexp.MustCompile(`serving .* on (\S+)`)

// startServe execs zsdb serve on a loopback port the kernel picks and
// returns once /healthz answers 200. setup is the time from exec to
// that first 200.
func (z zsdb) startServe(model, logName string) (*server, error) {
	cmd, log, err := z.command(logName, "serve", "-models", model,
		"-databases", params.Databases,
		"-dbscale", strconv.FormatFloat(params.DBScale, 'g', -1, 64),
		"-addr", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cmd.Stderr = nil
	pipe, err := cmd.StderrPipe()
	if err != nil {
		log.Close()
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	s := &server{cmd: cmd, log: log, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(log, line)
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		_, _ = io.Copy(log, pipe) // drain after a scanner error; the log is diagnostics only
		s.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case err := <-s.done:
		log.Close()
		return nil, fmt.Errorf("zsdb serve exited during start-up: %v (see %s)", err, log.Name())
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("zsdb serve did not listen within 60s (see %s)", log.Name())
	}
	hc := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("zsdb serve /healthz never answered 200 (see %s)", log.Name())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// peakRSSMiB reads the server's peak resident set (VmHWM).
func (s *server) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kib, err := strconv.ParseFloat(f[1], 64)
			return kib / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// cpuSeconds reads the server's cumulative user plus system CPU time
// from /proc/<pid>/stat (Linux counts it in 1/100 s ticks).
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	_, rest, ok := strings.Cut(string(raw), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", s.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", s.cmd.Process.Pid)
	}
	return (utime + stime) / 100, nil
}

// stop sends SIGTERM and requires the drain path to exit 0 within 30s.
func (s *server) stop() error {
	defer s.log.Close()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("zsdb serve did not exit 0 on SIGTERM: %v", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("zsdb serve did not exit within 30s of SIGTERM")
	}
}

// kill ends the server without the drain path and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // it may already have exited
	<-s.done
	s.log.Close()
}
