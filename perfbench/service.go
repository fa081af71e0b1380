package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcsafe"
	"mcsafe/internal/obs"
	"mcsafe/internal/server"
	"mcsafe/internal/vstore"
)

// service is an in-process mcsafed: the v1 handler on a real loopback
// listener, configured with mcsafed's defaults.
type service struct {
	store  *vstore.Store
	trace  *obs.Trace
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
	// timing is the traced run's handler wrapper (nil when untraced).
	timing *timingHandler
}

// startService opens (or reopens) the store at dir and serves it. The
// configuration is mcsafed's flag defaults: a 64 MiB memory layer, a
// 1 GiB disk layer, default shards, fsync commits, Parallelism 1,
// MaxInFlight = GOMAXPROCS, no admission wait, and a trace keeping
// 4096 spans.
func startService(dir string, timed bool) (*service, error) {
	store, err := vstore.Open(dir, vstore.Options{MemBytes: 64 << 20, DiskBytes: 1 << 30})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	trace := obs.New()
	trace.SetSpanLimit(4096)
	srv := server.New(server.Config{Store: store, Parallelism: 1, Trace: trace})
	s := &service{store: store, trace: trace, srv: srv, served: make(chan error, 1)}
	var h http.Handler = srv.Handler()
	if timed {
		s.timing = &timingHandler{next: h}
		h = s.timing
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.url = "http://" + ln.Addr().String() + "/v1/check"
	s.hs = &http.Server{Handler: h}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the listener, waits for the serve loop and closes the
// store, as mcsafed does on SIGTERM.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// timingHandler times server.Handler() from the benchmark's side. The
// client tags each request with its sequence number, so the client's
// round trip and the handler's time pair up afterwards.
type timingHandler struct {
	next http.Handler
	mu   sync.Mutex
	ns   map[int]int64
}

const seqHeader = "X-Perfbench-Seq"

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0).Nanoseconds()
	if seq, err := strconv.Atoi(r.Header.Get(seqHeader)); err == nil {
		h.mu.Lock()
		if h.ns == nil {
			h.ns = map[int]int64{}
		}
		h.ns[seq] = d
		h.mu.Unlock()
	}
}

func (h *timingHandler) take() map[int]int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.ns
	h.ns = nil
	return out
}

// client is a closed-loop HTTP client with a bounded connection pool.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient(conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends one request and returns the status, the body and the round
// trip in milliseconds (request written to body fully read).
func (c *client) post(url string, body []byte, seq int) (int, []byte, float64, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if seq >= 0 {
		req.Header.Set(seqHeader, strconv.Itoa(seq))
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, b, ms, nil
}

// verdict is a checked response: the content addresses the server
// reported and the wire-encoded result.
type verdict struct {
	Program, Policy string
	Wire            []byte
	// CheckNS is the check's own time as the result reports it.
	CheckNS int64
}

// checkResponse decodes one response and checks it against the item's
// ground truth and the expected store outcome.
func checkResponse(it *item, status int, body []byte, wantCached bool) (verdict, error) {
	if status != http.StatusOK {
		return verdict{}, fmt.Errorf("%s: HTTP %d: %.200s", it.Name, status, body)
	}
	var resp server.CheckResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return verdict{}, fmt.Errorf("%s: bad response: %v", it.Name, err)
	}
	if resp.Error != "" {
		return verdict{}, fmt.Errorf("%s: server error: %s", it.Name, resp.Error)
	}
	if resp.Cached != wantCached {
		return verdict{}, fmt.Errorf("%s: cached=%v, want %v", it.Name, resp.Cached, wantCached)
	}
	w, err := mcsafe.UnmarshalWire(resp.Result)
	if err != nil {
		return verdict{}, fmt.Errorf("%s: %v", it.Name, err)
	}
	if err := checkTruth(it, w.Safe, violationCodes(w.Violations)); err != nil {
		return verdict{}, err
	}
	return verdict{Program: resp.Program, Policy: resp.Policy, Wire: resp.Result, CheckNS: int64(w.Times.Total)}, nil
}

func violationCodes(vs []mcsafe.Violation) []string {
	codes := make([]string, len(vs))
	for i, v := range vs {
		codes[i] = v.Code
	}
	sort.Strings(codes)
	return codes
}

// checkTruth compares a verdict with the item's ground truth: the same
// verdict, and on a rejection every wanted code charged.
func checkTruth(it *item, safe bool, codes []string) error {
	if safe != it.WantSafe {
		return fmt.Errorf("%s: safe=%v, want %v (codes %v)", it.Name, safe, it.WantSafe, codes)
	}
	for _, want := range it.WantCodes {
		if !slices.Contains(codes, want) {
			return fmt.Errorf("%s: code %q not charged (codes %v)", it.Name, want, codes)
		}
	}
	return nil
}

// coldResult is one cold submission made while setting up.
type coldResult struct {
	verdict
	MS  float64
	Seq int
}

// coldSeq numbers cold submissions apart from a window's requests.
const coldSeq = 1 << 30

// submitCold posts every item once, expecting cold checks. The Figure 9
// programs go first, one at a time on one connection, so their round
// trips (check_ms_geomean's samples) do not share the machine with
// other checks; the rest follow over conns connections, largest first
// so the longest checks start early.
func submitCold(c *client, url string, items []item, conns int) (map[string]coldResult, error) {
	var paper, rest []int
	for i := range items {
		if items[i].Paper {
			paper = append(paper, i)
		} else {
			rest = append(rest, i)
		}
	}
	sort.SliceStable(rest, func(a, b int) bool { return len(items[rest[a]].Asm) > len(items[rest[b]].Asm) })
	var (
		mu   sync.Mutex
		out  = make(map[string]coldResult, len(items))
		errs []error
	)
	submit := func(k int) {
		it := &items[k]
		status, body, ms, err := c.post(url, it.Body, coldSeq+k)
		var v verdict
		if err == nil {
			v, err = checkResponse(it, status, body, false)
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs = append(errs, err)
		} else {
			out[it.Name] = coldResult{verdict: v, MS: ms, Seq: coldSeq + k}
		}
	}
	for _, k := range paper {
		submit(k)
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(rest) {
					return
				}
				submit(rest[n])
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// op is one measured request of a window.
type op struct {
	MS     float64
	Cached bool
	Seq    int
	Err    error
	// Cold keeps a miss's answer for the traced run's replay.
	Cold *coldResult
}

// runStream replays stream over conns connections in a closed loop until
// the stream ends or the window closes; each connection sends its next
// request only after the previous answer is checked. It returns the
// completed ops and the window's length.
func runStream(c *client, url string, stream []step, conns int, window time.Duration, cold map[string]coldResult) ([]op, time.Duration) {
	ops := make([]op, len(stream))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	deadline := t0.Add(window)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1)) - 1
				if k >= len(stream) {
					return
				}
				st := stream[k]
				status, body, ms, err := c.post(url, st.Item.Body, k)
				o := op{MS: ms, Cached: st.Cached, Seq: k}
				if err == nil {
					var v verdict
					v, err = checkResponse(st.Item, status, body, st.Cached)
					switch {
					case err != nil:
					case st.Cached && !bytes.Equal(v.Wire, cold[st.Item.Name].Wire):
						// A hit must replay the cold check's bytes exactly.
						err = fmt.Errorf("%s: hit differs from the cold result", st.Item.Name)
					case !st.Cached:
						o.Cold = &coldResult{verdict: v, MS: ms, Seq: k}
					}
				}
				o.Err = err
				ops[k] = o
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	n := int(next.Load())
	if n > len(stream) {
		n = len(stream)
	}
	// Every claimed index was sent and answered before its goroutine
	// looked at the clock again, so the first n ops are complete.
	return ops[:n], elapsed
}
