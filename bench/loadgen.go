package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client is one keep-alive HTTP/1.1 connection driven synchronously:
// write a request, read and return the whole reply. No goroutines and
// no connection pool sit between the timestamps and the socket.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
}

// headRequest tells http.ReadResponse that no body follows the reply.
var headRequest = &http.Request{Method: http.MethodHead}

func dialClient(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *client) close() { _ = c.conn.Close() } // nothing is pending on a synchronous connection

// do sends one request with the given method and returns the status
// and the body, which stays valid until the next call.
func (c *client) do(method string, target []byte) (int, []byte, error) {
	c.req = append(c.req[:0], method...)
	c.req = append(c.req, ' ')
	c.req = append(c.req, target...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
	if _, err := c.conn.Write(c.req); err != nil {
		return 0, nil, err
	}
	var req *http.Request // nil reads the reply as a GET's
	if method == http.MethodHead {
		req = headRequest
	}
	resp, err := http.ReadResponse(c.br, req)
	if err != nil {
		return 0, nil, err
	}
	c.body = c.body[:0]
	if method != http.MethodHead {
		if n := resp.ContentLength; n >= 0 {
			if int64(cap(c.body)) < n {
				c.body = make([]byte, 0, n)
			}
			c.body = c.body[:n]
			_, err = io.ReadFull(resp.Body, c.body)
		} else {
			c.body, err = readAllInto(c.body, resp.Body)
		}
	}
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.body, nil
}

func (c *client) get(target string) (int, []byte, error) {
	return c.do(http.MethodGet, []byte(target))
}

// readAllInto is io.ReadAll into a reused buffer.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// think blocks the calling thread for d. time.Sleep will not do: an
// otherwise idle Go process sleeps in epoll_wait, whose timeout is in
// whole milliseconds, so 200 µs becomes 1.1 ms. nanosleep is a
// high-resolution timer, and while this thread is in it the runtime
// hands the processor to the origin's goroutines.
func think(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens one think time
}

// sharedStream deals one logical request stream, in order, to whichever
// connection asks next.
type sharedStream struct {
	mu sync.Mutex
	s  stream
}

func (s *sharedStream) next(dst []int64) []int64 {
	s.mu.Lock()
	dst = s.s.next(dst)
	s.mu.Unlock()
	return dst
}

// fullCheckEvery is the sampling of byte-for-byte body comparison;
// length and leading "id." are checked on every reply.
const fullCheckEvery = 64

// loadResult is what the closed-loop clients saw over one stretch of
// load.
type loadResult struct {
	samples   []float64 // request latencies in µs, connections merged
	attempted int64     // requests sent
	failed    int64     // transport error, non-200, or a reply that failed its check
	keys      int64     // keys asked for (8 per batch session)
	bytes     int64     // payload bytes received in verified replies
	elapsed   time.Duration
	firstErr  error
}

// add sums another stretch's counters into a; the samples stay apart.
func (a *loadResult) add(b loadResult) {
	a.attempted += b.attempted
	a.failed += b.failed
	a.keys += b.keys
	a.bytes += b.bytes
	a.elapsed += b.elapsed
	if a.firstErr == nil {
		a.firstErr = b.firstErr
	}
}

// runLoad drives conns closed-loop connections against addr: each sends
// its next request once the previous reply has been read and verified.
// With count > 0 they send exactly count requests between them (the
// warm-up); otherwise they run for dur, with the workload's think time
// after each reply.
func runLoad(addr string, sp spec, st *sharedStream, conns, count int, dur time.Duration) (loadResult, error) {
	clients := make([]*client, conns)
	for i := range clients {
		c, err := dialClient(addr)
		if err != nil {
			for _, prev := range clients[:i] {
				prev.close()
			}
			return loadResult{}, fmt.Errorf("loadgen: %w", err)
		}
		clients[i] = c
	}
	results := make([]loadResult, conns)
	var remaining atomic.Int64
	remaining.Store(int64(count))
	t0 := time.Now()
	deadline := t0.Add(dur)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(c *client, res *loadResult) {
			defer wg.Done()
			defer c.close()
			var keys []int64
			var target []byte
			scratch := make([]byte, sp.size)
			for n := int64(0); ; n++ {
				if count > 0 && remaining.Add(-1) < 0 {
					return
				}
				start := time.Now()
				if count == 0 && !start.Before(deadline) {
					return
				}
				keys = st.next(keys)
				if sp.batch {
					target = batchPath(target, keys)
				} else {
					target = objPath(target, keys[0])
				}
				status, body, err := c.do(http.MethodGet, target)
				if err == nil && status != 200 {
					err = fmt.Errorf("status %d", status)
				}
				if err == nil {
					full := n%fullCheckEvery == 0
					if sp.batch {
						err = checkFrames(body, keys, sp.size, full, scratch)
					} else {
						err = checkPayload(body, keys[0], sp.size, full, scratch)
					}
				}
				end := time.Now()
				res.attempted++
				res.keys += int64(len(keys))
				if err != nil {
					res.failed++
					res.firstErr = fmt.Errorf("%s %s: %w", sp.name, target, err)
					// The connection's framing is unknown after a failed
					// exchange; this connection stops, the others go on.
					return
				}
				res.bytes += int64(len(keys) * sp.size)
				res.samples = append(res.samples, float64(end.Sub(start).Nanoseconds())/1e3)
				if count == 0 && sp.think > 0 {
					think(sp.think)
				}
			}
		}(clients[i], &results[i])
	}
	wg.Wait()
	var total loadResult
	for _, r := range results {
		total.add(r)
		total.samples = append(total.samples, r.samples...)
	}
	total.elapsed = time.Since(t0)
	return total, nil
}

// probeLatency times n requests for target on each of conns fresh
// connections at once — the concurrency the workloads run at, so the
// daemon's fixed paths (/healthz, /stats, HEAD) are timed under the
// same wake-up regime as the requests they are compared with — and
// returns the latencies in µs.
func probeLatency(addr, method, target string, conns, n int) ([]float64, error) {
	outs := make([][]float64, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := dialClient(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.close()
			tb := []byte(target)
			for j := 0; j < n; j++ {
				start := time.Now()
				status, _, err := c.do(method, tb)
				if err != nil || status != 200 {
					errs[i] = fmt.Errorf("%s %s: status %d, err %v", method, target, status, err)
					return
				}
				outs[i] = append(outs[i], float64(time.Since(start).Nanoseconds())/1e3)
			}
		}(i)
	}
	wg.Wait()
	var all []float64
	for i, o := range outs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		all = append(all, o...)
	}
	return all, nil
}
