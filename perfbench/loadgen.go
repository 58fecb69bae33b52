package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client is the load generator's HTTP side: at most conns keep-alive
// connections to one zsdb serve.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends one JSON request and decodes a 200 reply into out. It
// returns the reply's body size.
func (c *client) post(path string, body []byte, out any) (int, error) {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return len(raw), err
	}
	if resp.StatusCode != http.StatusOK {
		return len(raw), fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return len(raw), json.Unmarshal(raw, out)
}

func (c *client) get(path string, out any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

type predictReq struct {
	DB  string `json:"db"`
	SQL string `json:"sql"`
}

type predictResp struct {
	RuntimeSec float64 `json:"runtime_sec"`
}

type batchReq struct {
	DB  string   `json:"db"`
	SQL []string `json:"sql"`
}

type batchResp struct {
	Results []struct {
		RuntimeSec float64 `json:"runtime_sec"`
		Error      string  `json:"error"`
	} `json:"results"`
	Count  int `json:"count"`
	Errors int `json:"errors"`
}

// Sample is one request's timing, as offsets from its phase start. Due
// is when the schedule wanted it sent (the send time in a closed loop).
type Sample struct {
	Due, Sent, Done time.Duration
	OK              bool
	Bytes           int
}

// Latency is the due-time latency the request's user saw.
func (s Sample) Latency() time.Duration { return s.Done - s.Due }

// Late is how far behind its schedule the generator sent the request.
func (s Sample) Late() time.Duration { return s.Sent - s.Due }

// precise waits until t. Go's timers wake about a millisecond late on
// Linux, which would inflate every sub-millisecond latency measured from
// the due time, so the last stretch is one nanosleep on a thread with
// minimal timer slack (see lockPreciseThread).
func precise(t time.Time) {
	d := time.Until(t)
	if d > 4*time.Millisecond {
		time.Sleep(d - 3*time.Millisecond)
		d = time.Until(t)
	}
	if d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait; the send records its lateness
	}
}

// lockPreciseThread pins the calling goroutine to its OS thread and
// drops that thread's timer slack to 1ns, so nanosleep wakes within
// tens of microseconds. The caller must call runtime.UnlockOSThread.
func lockPreciseThread() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: a failure leaves the default 50µs slack
}

// pauseGC collects once and then turns the generator's own garbage
// collector off until the returned func runs, so collector pauses in
// the load generator never delay a send. One window allocates at most
// tens of MB.
func pauseGC() func() {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// runWindow runs one load window with the generator's collector paused
// and returns its samples, the server's CPU seconds over it and the
// host's steal share over it.
func runWindow(srv *server, load func() []Sample) ([]Sample, float64, float64, error) {
	quiet := pauseGC()
	defer quiet()
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, 0, 0, err
	}
	var ss []Sample
	steal := timedSteal(func() { ss = load() })
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, 0, 0, err
	}
	return ss, cpu1 - cpu0, steal, nil
}

// openLoop sends every arrival at its due time from workers goroutines
// (one connection each) and returns one Sample per arrival. A worker
// picks the next unsent arrival as soon as it is free, so when every
// worker is busy the arrival waits and its lateness counts in its
// latency. send performs one request and reports success and reply size.
func openLoop(arrivals []Arrival, workers int, send func(i int) (bool, int)) []Sample {
	out := make([]Sample, len(arrivals))
	var next atomic.Int64
	next.Store(-1)
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lockPreciseThread()
			defer runtime.UnlockOSThread()
			for {
				i := int(next.Add(1))
				if i >= len(arrivals) {
					return
				}
				due := arrivals[i].Due
				precise(start.Add(due))
				sent := time.Since(start)
				ok, n := send(i)
				out[i] = Sample{Due: due, Sent: sent, Done: time.Since(start), OK: ok, Bytes: n}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs clients goroutines for dur; each sends its next
// request as soon as the previous one returns. send performs one request
// and reports success, reply size, and false in more once the work has
// run out (that call sends nothing and ends its client).
func closedLoop(clients int, dur time.Duration, send func() (ok bool, n int, more bool)) []Sample {
	var mu sync.Mutex
	var out []Sample
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				sent := time.Since(start)
				ok, n, more := send()
				if !more {
					return
				}
				s := Sample{Due: sent, Sent: sent, Done: time.Since(start), OK: ok, Bytes: n}
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].Sent < out[j].Sent })
	return out
}
