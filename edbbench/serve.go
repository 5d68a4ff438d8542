package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"edb/internal/exp"
	"edb/internal/progs"
	"edb/internal/serve"
	"edb/internal/serve/loadgen"
	"edb/internal/sessions"
	"edb/internal/sim"
	"edb/internal/trace"
)

// Request kinds of the serve mix.
const (
	kindHit    = "hit"    // hash-only submission of a stored spec
	kindUpload = "upload" // full upload of a small trace, new spec
	kindGCC    = "gcc"    // full gcc upload: spooled decode, streamed replay
	kindMutate = "mutate" // POST /v1/session growing a stored spec
)

// latencyLimit is the serve mix's latency limit: a response later than
// this after its scheduled send time does not count toward goodput.
const latencyLimit = 2 * time.Second

// serveLanes is the number of lanes, each one goroutine on one
// connection: hits on one and misses on the other, or both on one lane
// on a single-processor host, so that the load never uses more
// goroutines or connections than the host has processors.
func serveLanes() int { return min(2, runtime.NumCPU()) }

// payload is one program's upload: its v3 trace bytes and the session
// set discovered from it.
// The decoded trace is not kept: the phases that need it decode it when
// they do, so that this process's heap stays small while it measures.
type payload struct {
	bytes []byte
	set   *sessions.Set
}

// trace decodes the payload.
func (pl *payload) trace() (*trace.Trace, error) {
	return trace.Materialize(trace.BytesSource(pl.bytes))
}

// spec is one replay question: a program and a session selection.
type spec struct {
	program string
	hdr     serve.RequestHeader
	hash    string // content address of a full submission
}

// request is one scheduled submission.
type request struct {
	kind string
	spec *spec
	base *spec // mutate_from, for kindMutate
	at   time.Duration
}

// outcome is what one request came back with.
type outcome struct {
	ok        bool
	cached    bool
	resultSHA string
	rowsSHA   string // resultHash recomputed from the session lines
	sessions  int
	hits      uint64
	latency   time.Duration // from the scheduled send time
	serverMS  float64       // trailer elapsed_ms
	lag       time.Duration // how late an idle lane sent it; -1 if the lane was busy
	retries   int
	err       error
}

// server is the running edb-serve process and the mix aimed at it.
type server struct {
	cmd      *exec.Cmd
	stderr   sync.WaitGroup
	base     string
	storeDir string
	client   *http.Client

	payloads map[string]*payload
	bases    []*spec
	schedule []request
	// lanes index the schedule, each lane in send order.
	lanes  [][]int
	window time.Duration

	// outs are the responses, by schedule index, and elapsed the time
	// the slices sent so far took.
	outs    []outcome
	elapsed time.Duration

	peakRSSKB int64
	stopped   bool
}

// setupServe builds the serve phase's inputs and server three times and
// keeps the last: payloads re-encoded from the artifacts the cold phase
// cached, a fresh edb-serve process with an empty store, the stored
// base specs the hits read, and the seeded schedule. It returns the
// median set-up time in seconds.
func setupServe(r *run, rng *rand.Rand) (*server, float64, error) {
	var sv *server
	var times []float64
	for rep := 0; rep < r.cfg.reps(3); rep++ {
		if sv != nil {
			if err := sv.stop(); err != nil {
				return nil, 0, err
			}
		}
		t := time.Now()
		var err error
		sv, err = newServer(r, rand.New(rand.NewSource(rng.Int63())), rep)
		times = append(times, time.Since(t).Seconds())
		if err != nil {
			if sv != nil {
				sv.stop()
			}
			return nil, 0, err
		}
	}
	return sv, median(times), nil
}

func newServer(r *run, rng *rand.Rand, rep int) (*server, error) {
	sv := &server{payloads: make(map[string]*payload)}
	for _, name := range paperPrograms {
		p, err := progs.ByName(name, 1)
		if err != nil {
			return nil, err
		}
		src, err := exp.CachedStreamSource(p)
		if err != nil {
			return nil, fmt.Errorf("serve payload for %s: %w", name, err)
		}
		tr, err := trace.Materialize(src)
		if err != nil {
			return nil, fmt.Errorf("serve payload for %s: %w", name, err)
		}
		b, err := loadgen.EncodeTrace(tr, 3)
		if err != nil {
			return nil, fmt.Errorf("serve payload for %s: %w", name, err)
		}
		pin := r.cfg.pins.Programs[name]
		d := traceDigest(tr)
		r.check(d == pin.TraceSHA256 && len(tr.Events) == pin.Events && tr.Instret == pin.Instret,
			"%s payload: trace digest %s, %d events, instret %d; pinned %s, %d, %d",
			name, d, len(tr.Events), tr.Instret, pin.TraceSHA256, pin.Events, pin.Instret)
		sv.payloads[name] = &payload{bytes: b, set: sessions.Discover(tr)}
	}

	sv.storeDir = filepath.Join(r.cfg.workDir, fmt.Sprintf("store-%d-%d", os.Getpid(), rep))
	if err := os.RemoveAll(sv.storeDir); err != nil {
		return nil, err
	}
	if err := sv.start(r.cfg.serveBin); err != nil {
		return sv, err
	}
	sv.plan(r, rng)
	// Store the base specs the hits and mutations read.
	for _, b := range sv.bases {
		o := sv.do(context.Background(), &request{kind: kindUpload, spec: b}, time.Now(), nil, span{}, "")
		if !o.ok {
			return sv, fmt.Errorf("storing base spec for %s: %v", b.program, o.err)
		}
	}
	return sv, nil
}

// start launches edb-serve on an ephemeral loopback port and waits for
// its listening line.
func (sv *server) start(bin string) error {
	sv.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-store", sv.storeDir)
	// The server dies with this process, however that ends.
	sv.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := sv.cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := sv.cmd.Start(); err != nil {
		return fmt.Errorf("starting edb-serve: %w", err)
	}
	addr := make(chan string, 1)
	sv.stderr.Add(1)
	go func() {
		defer sv.stderr.Done()
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "edb-serve: listening on "); ok && !sent {
				addr <- a
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			return errors.New("edb-serve exited before listening")
		}
		sv.base = "http://" + a
	case <-time.After(20 * time.Second):
		return errors.New("edb-serve did not report its address")
	}
	sv.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveLanes(),
		MaxIdleConnsPerHost: serveLanes(),
		DisableCompression:  true,
	}}
	return nil
}

// specSessions is how many sessions a new spec names, and how many a
// mutation adds to its base: a fixed number, so that the misses of
// every seed replay like amounts of work and only which sessions they
// replay is drawn.
const specSessions = 6

// plan draws the base specs and the request schedule: window × rate
// requests evenly spaced, their kinds in exact workload proportions in
// seeded order, every upload and mutation asking a question no earlier
// request asked.
func (sv *server) plan(r *run, rng *rand.Rand) {
	w := r.cfg.workload
	seen := make(map[string]bool)
	newSpec := func(program string, from *spec) *spec {
		n := len(sv.payloads[program].set.Sessions)
		for {
			var idx []int
			named := make(map[int]bool)
			if from != nil {
				for _, i := range from.hdr.Sessions.Indices {
					idx = append(idx, i)
					named[i] = true
				}
			}
			for want := min(len(idx)+specSessions, n); len(idx) < want; {
				if i := rng.Intn(n); !named[i] {
					idx = append(idx, i)
					named[i] = true
				}
			}
			sort.Ints(idx)
			s := &spec{program: program, hdr: serve.RequestHeader{Program: program, Sessions: serve.SessionSpec{Indices: idx}}}
			s.hash = serve.HashRequest(&s.hdr, sv.payloads[program].bytes)
			if !seen[s.hash] {
				seen[s.hash] = true
				return s
			}
		}
	}
	small := paperPrograms[1:]
	for _, n := range paperPrograms {
		for i := 0; i < 2; i++ {
			sv.bases = append(sv.bases, newSpec(n, nil))
		}
	}
	// Every kind, and every program within a kind, gets its exact share
	// of the requests; only their order is drawn.
	sv.window = time.Duration(r.cfg.seconds / 2 * float64(time.Second))
	nMiss := int(w.missRate * sv.window.Seconds())
	nGCC, nMut := int(gccShare*float64(nMiss)), int(w.mutShare*float64(nMiss))
	var hits, misses []request
	for i := 0; i < int(w.hitRate*sv.window.Seconds()); i++ {
		hits = append(hits, request{kind: kindHit, spec: sv.bases[i%len(sv.bases)]})
	}
	for i := 0; i < nMiss; i++ {
		switch {
		case i < nGCC:
			misses = append(misses, request{kind: kindGCC, spec: newSpec("gcc", nil)})
		case i < nGCC+nMut:
			base := sv.bases[2*(1+i%len(small))+rng.Intn(2)] // a base of a small program
			misses = append(misses, request{kind: kindMutate, base: base, spec: newSpec(base.program, base)})
		default:
			misses = append(misses, request{kind: kindUpload, spec: newSpec(small[i%len(small)], nil)})
		}
	}
	for _, qs := range [][]request{hits, misses} {
		rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		var lane []int
		for i := range qs {
			qs[i].at = time.Duration(i) * sv.window / time.Duration(len(qs))
			lane = append(lane, len(sv.schedule))
			sv.schedule = append(sv.schedule, qs[i])
		}
		sv.lanes = append(sv.lanes, lane)
	}
	if serveLanes() == 1 {
		both := append(sv.lanes[0], sv.lanes[1]...)
		sort.SliceStable(both, func(i, j int) bool { return sv.schedule[both[i]].at < sv.schedule[both[j]].at })
		sv.lanes = [][]int{both}
	}
}

// serveSlice sends the part of the schedule due in slice i of n of the
// window, open loop. Each lane is one goroutine on one connection; with
// two, hits go on one and misses on the other, so reads run beside
// writes. A request is due at its scheduled time whether or not the
// lane's previous request has finished; its latency counts from then,
// so a stall also delays the requests queued behind it.
func serveSlice(r *run, sv *server, i, n int) {
	// One processor per lane (main sets one for the other phases).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(len(sv.lanes)))
	if sv.outs == nil {
		sv.outs = make([]outcome, len(sv.schedule))
	}
	lo := sv.window * time.Duration(i) / time.Duration(n)
	hi := sv.window * time.Duration(i+1) / time.Duration(n)
	var wg sync.WaitGroup
	start := time.Now()
	for _, lane := range sv.lanes {
		wg.Add(1)
		go func(lane []int) {
			defer wg.Done()
			for _, i := range lane {
				q := &sv.schedule[i]
				if q.at < lo || q.at >= hi {
					continue
				}
				due := start.Add(q.at - lo)
				lag := time.Duration(-1) // the lane was busy at the due time
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					lag = time.Since(due)
				}
				group := "req-" + strconv.Itoa(i)
				root := r.ledger.begin("serve.request", span{}, group)
				sv.outs[i] = sv.do(context.Background(), q, due, r.ledger, root, group)
				root.end()
				sv.outs[i].lag = lag
			}
		}(lane)
	}
	wg.Wait()
	sv.elapsed += time.Since(start)
}

// serveFinish checks every response of the window's slices against an
// in-process replay of its spec and sets the serve metrics.
func serveFinish(r *run, sv *server) error {
	outs, elapsed := sv.outs, sv.elapsed
	// Check every response against the in-process reference.
	want, err := sv.references()
	if err != nil {
		return err
	}
	var hitLat, missLat, lags, serverMS, clientMS []float64
	var good, retries int
	var sessionsN, hits uint64
	for i := range sv.schedule {
		q, o := &sv.schedule[i], &outs[i]
		wantSHA := want[q.spec.hash]
		correct := r.check(o.ok && o.resultSHA == wantSHA && o.rowsSHA == wantSHA && o.cached == (q.kind == kindHit),
			"serve %s request %d (%s): ok=%v cached=%v result %.12s rows %.12s, want %.12s: %v",
			q.kind, i, q.spec.program, o.ok, o.cached, o.resultSHA, o.rowsSHA, wantSHA, o.err)
		ms := float64(o.latency.Nanoseconds()) / 1e6
		if q.kind == kindHit {
			hitLat = append(hitLat, ms)
		} else {
			missLat = append(missLat, ms)
		}
		if correct && o.latency <= latencyLimit {
			good++
		}
		if o.lag >= 0 {
			lags = append(lags, float64(o.lag.Nanoseconds())/1e6)
		}
		serverMS = append(serverMS, o.serverMS)
		clientMS = append(clientMS, ms-o.serverMS)
		retries += o.retries
		if q.kind != kindHit {
			sessionsN += uint64(o.sessions)
		}
		hits += o.hits
	}
	if !r.cfg.traced {
		r.set("serve_hit_p50_ms", quantile(hitLat, 0.50), "ms")
		r.set("serve_goodput_rps", float64(good)/elapsed.Seconds(), "1/s")
		fmt.Fprintf(r.cfg.log, "edbbench: serve: %d hits, %d misses over %.1fs\n", len(hitLat), len(missLat), elapsed.Seconds())
		for _, k := range []string{kindHit, kindUpload, kindGCC, kindMutate} {
			var lat, srv []float64
			byProg := make(map[string][]float64)
			for i := range sv.schedule {
				if q := &sv.schedule[i]; q.kind == k {
					ms := float64(outs[i].latency.Nanoseconds()) / 1e6
					lat = append(lat, ms)
					srv = append(srv, outs[i].serverMS)
					byProg[q.spec.program] = append(byProg[q.spec.program], ms)
				}
			}
			fmt.Fprintf(r.cfg.log, "edbbench: serve %s: n=%d latency p50 %.1f p90 %.1f ms, server p50 %.1f p90 %.1f ms\n",
				k, len(lat), quantile(lat, 0.5), quantile(lat, 0.9), quantile(srv, 0.5), quantile(srv, 0.9))
			if k != kindHit {
				for _, p := range paperPrograms {
					if xs := byProg[p]; len(xs) > 0 {
						sort.Float64s(xs)
						fmt.Fprintf(r.cfg.log, "edbbench: serve %s %s: latency %.1f ms\n", k, p, xs)
					}
				}
			}
		}
	}
	metrics, err := sv.scrape()
	if err != nil {
		return err
	}
	if err := sv.sampleRSS(); err != nil {
		return err
	}
	if !r.cfg.traced {
		return nil
	}
	// The miss latencies and the hit tail are too uneven from run to run
	// on a shared host to carry an end-to-end bound: the hit tail is rare
	// stalls, the miss p90 (three misses beyond it in a 12 s window)
	// falls among the gcc uploads, and the miss median follows the
	// server's speed, which moves by more than the benchmark's own
	// calibration (see calib.go) and a bound can absorb.
	r.set("serve.serve.hit_p99_ms", quantile(hitLat, 0.99), "ms")
	r.set("serve.serve.miss_p50_ms", quantile(missLat, 0.50), "ms")
	r.set("serve.serve.miss_p90_ms", quantile(missLat, 0.90), "ms")
	r.set("serve.serve.server_ms", median(serverMS), "ms")
	r.set("serve.serve.client_ms", median(clientMS), "ms")
	r.set("serve.serve.gen_lag_ms", quantile(lags, 0.99), "ms")
	r.set("serve.serve.dedupe_hits", metrics["edb_serve_dedupe_hits_total"], "count")
	ratio := 0.0
	if n := metrics[`edb_serve_requests_total{code="200"}`]; n > 0 {
		ratio = metrics["edb_serve_dedupe_hits_total"] / n
	}
	r.set("serve.serve.hit_ratio", ratio, "ratio")
	r.set("serve.serve.shed", metrics["edb_serve_shed_total"], "count")
	r.set("serve.serve.retries", float64(retries), "count")
	r.set("serve.sim.sessions", float64(sessionsN), "count")
	r.set("serve.wms.hits", float64(hits), "count")
	return sv.layerTimings(r)
}

// do sends one request, following a shed response's Retry-After up to
// three attempts, and parses the JSONL result stream.
func (sv *server) do(ctx context.Context, q *request, due time.Time, l *ledger, parent span, group string) outcome {
	var o outcome
	hdr := q.spec.hdr
	path := "/v1/replay"
	body := sv.payloads[q.spec.program].bytes
	switch q.kind {
	case kindHit:
		hdr.ContentSHA256 = q.spec.hash
		body = nil
	case kindMutate:
		path = "/v1/session"
		from := q.base.hdr.Sessions
		hdr.MutateFrom = &from
	}
	sp := l.begin("serve.EncodeRequest", parent, group)
	var env bytes.Buffer
	err := serve.EncodeRequest(&env, &hdr, body)
	sp.end()
	if err != nil {
		o.err = err
		return o
	}
	for attempt := 0; attempt < 3; attempt++ {
		sp = l.begin("http.Post", parent, group)
		retry, err := sv.post(ctx, path, env.Bytes(), &o)
		sp.end()
		o.err = err
		if retry <= 0 {
			break
		}
		o.retries++
		time.Sleep(retry)
	}
	o.ok = o.err == nil
	o.latency = time.Since(due)
	return o
}

// post performs one exchange. A positive duration asks for a retry.
func (sv *server) post(ctx context.Context, path string, env []byte, o *outcome) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sv.base+path, bytes.NewReader(env))
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-EDB-Tenant", "bench")
	resp, err := sv.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		err := fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			if ms, perr := strconv.Atoi(resp.Header.Get("X-EDB-Retry-After-Ms")); perr == nil && ms > 0 {
				return time.Duration(ms) * time.Millisecond, err
			}
			return 10 * time.Millisecond, err
		}
		return 0, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var rows []serve.SessionResult
	first := true
	for sc.Scan() {
		var line struct {
			Error     string   `json:"error"`
			Cached    *bool    `json:"cached"`
			Index     *int     `json:"index"`
			ResultSHA string   `json:"result_sha"`
			ElapsedMS *float64 `json:"elapsed_ms"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return 0, fmt.Errorf("bad stream line: %w", err)
		}
		switch {
		case line.Error != "":
			return 0, fmt.Errorf("in-band error: %s", line.Error)
		case first && line.Cached != nil:
			o.cached = *line.Cached
		case line.Index != nil:
			var row serve.SessionResult
			if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
				return 0, fmt.Errorf("bad session line: %w", err)
			}
			rows = append(rows, row)
			o.hits += row.Counting.Hits
		case line.ResultSHA != "" && line.ElapsedMS != nil:
			o.resultSHA, o.serverMS = line.ResultSHA, *line.ElapsedMS
		}
		first = false
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading stream: %w", err)
	}
	if o.resultSHA == "" {
		return 0, errors.New("stream ended without a trailer")
	}
	o.sessions = len(rows)
	o.rowsSHA = resultHash(rows)
	return 0, nil
}

// references replays, in process, every session any spec of the phase
// selected — one replay per program, since a session's counts do not
// depend on the sessions replayed beside it — and returns each spec's
// result hash by content address, sealed the way the server seals it.
func (sv *server) references() (map[string]string, error) {
	specs := append([]*spec(nil), sv.bases...)
	for i := range sv.schedule {
		specs = append(specs, sv.schedule[i].spec)
	}
	want := make(map[string]string)
	for _, name := range paperPrograms {
		pl := sv.payloads[name]
		union := serve.SessionSpec{Indices: []int{}}
		for _, s := range specs {
			if s.program == name {
				union.Indices = append(union.Indices, s.hdr.Sessions.Indices...)
			}
		}
		chosen, orig, err := union.Select(pl.set)
		if err != nil {
			return nil, err
		}
		tr, err := pl.trace()
		if err != nil {
			return nil, err
		}
		subset := sessions.NewSet(chosen, pl.set.NumObjects())
		out, err := sim.RunWithOptions(tr, subset, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("reference replay of %s: %w", name, err)
		}
		rowOf := make(map[int]serve.SessionResult, len(orig))
		for i := range out.PerSession {
			ss := &subset.Sessions[i]
			rowOf[orig[i]] = serve.SessionResult{Index: orig[i], Type: ss.Type.String(), Label: ss.Label(), Counting: out.PerSession[i]}
		}
		for _, s := range specs {
			if s.program != name {
				continue
			}
			_, idx, err := s.hdr.Sessions.Select(pl.set)
			if err != nil {
				return nil, err
			}
			rows := make([]serve.SessionResult, len(idx))
			for i, j := range idx {
				rows[i] = rowOf[j]
			}
			want[s.hash] = resultHash(rows)
		}
	}
	return want, nil
}

// traceDigest is the SHA-256 of a trace's header counts, object table
// and events, with the trailing run of remove events sorted by object.
// The tracer emits that run — the teardown of heap objects still live
// at exit — in map iteration order, so the payload bytes of spice, gcc
// and bps differ from one trace to the next while every replay result
// stays the same; the digest pins everything else.
func traceDigest(tr *trace.Trace) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%d|%d\n", tr.Program, tr.BaseCycles, tr.Instret, tr.Objects.Len())
	for _, o := range tr.Objects.All() {
		fmt.Fprintf(h, "%+v\n", o)
	}
	ev := tr.Events
	tail := len(ev)
	for tail > 0 && ev[tail-1].Kind == trace.EvRemove {
		tail--
	}
	teardown := append([]trace.Event(nil), ev[tail:]...)
	sort.Slice(teardown, func(i, j int) bool {
		a, b := &teardown[i], &teardown[j]
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		return a.BA < b.BA
	})
	var buf [17]byte
	put := func(e *trace.Event) {
		buf[0] = byte(e.Kind)
		binary.LittleEndian.PutUint32(buf[1:], uint32(e.Obj))
		binary.LittleEndian.PutUint32(buf[5:], uint32(e.BA))
		binary.LittleEndian.PutUint32(buf[9:], uint32(e.EA))
		binary.LittleEndian.PutUint32(buf[13:], uint32(e.PC))
		h.Write(buf[:])
	}
	for i := range ev[:tail] {
		put(&ev[i])
	}
	for i := range teardown {
		put(&teardown[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultHash is the server's result seal: the SHA-256 over each
// session's canonical line in order.
func resultHash(rows []serve.SessionResult) string {
	h := sha256.New()
	for i := range rows {
		s := &rows[i]
		fmt.Fprintf(h, "%d|%s|%s|%d|%d|%d|%d|%v|%v\n",
			s.Index, s.Type, s.Label,
			s.Counting.Installs, s.Counting.Removes, s.Counting.Hits, s.Counting.Misses,
			s.Counting.VM[0], s.Counting.VM[1])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scrape reads the server's /metrics, summing each series over its
// labels (the code label of edb_serve_requests_total is kept).
func (sv *server) scrape() (map[string]float64, error) {
	resp, err := sv.client.Get(sv.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		base, labels, _ := strings.Cut(name, "{")
		out[base] += v
		if base == "edb_serve_requests_total" {
			for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
				if strings.HasPrefix(kv, "code=") {
					out[base+"{"+kv+"}"] += v
				}
			}
		}
	}
	return out, sc.Err()
}

// sampleRSS records the server's peak resident set (VmHWM).
func (sv *server) sampleRSS() error {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", sv.cmd.Process.Pid))
	if err != nil {
		return fmt.Errorf("reading server status: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return fmt.Errorf("parsing VmHWM: %w", err)
			}
			sv.peakRSSKB = kb
		}
	}
	return nil
}

// layerTimings times the serve package's public functions in process
// on the phase's own payloads: hashing every payload, buffered decode
// of the small-trace envelopes, spooled decode of the gcc envelope and
// its streamed replay.
func (sv *server) layerTimings(r *run) error {
	var hashMS, decodeMS, streamMS, replayMS float64
	for _, name := range paperPrograms {
		pl, ok := sv.payloads[name]
		if !ok {
			continue
		}
		hdr := sv.bases[0].hdr
		hdr.Program = name
		hdr.Sessions = serve.SessionSpec{Indices: []int{0}}
		t := time.Now()
		serve.HashRequest(&hdr, pl.bytes)
		hashMS += msSince(t)
		var env bytes.Buffer
		if err := serve.EncodeRequest(&env, &hdr, pl.bytes); err != nil {
			return err
		}
		if name != "gcc" {
			t = time.Now()
			_, err := serve.DecodeRequest(env.Bytes(), 64<<20)
			decodeMS += msSince(t)
			if err != nil {
				return fmt.Errorf("decoding %s envelope: %w", name, err)
			}
			continue
		}
		t = time.Now()
		req, err := serve.DecodeRequestStream(bytes.NewReader(env.Bytes()), 64<<20, r.cfg.workDir)
		streamMS += msSince(t)
		if err != nil {
			return fmt.Errorf("stream-decoding gcc envelope: %w", err)
		}
		var q *request
		for i := range sv.schedule {
			if sv.schedule[i].kind == kindGCC {
				q = &sv.schedule[i]
				break
			}
		}
		if q != nil {
			chosen, _, err := q.spec.hdr.Sessions.Select(pl.set)
			if err != nil {
				req.Cleanup()
				return err
			}
			t = time.Now()
			_, err = sim.RunWithOptions(nil, sessions.NewSet(chosen, pl.set.NumObjects()), sim.Options{Source: req.Streamed.Source})
			replayMS += msSince(t)
			if err != nil {
				req.Cleanup()
				return fmt.Errorf("streamed replay of gcc: %w", err)
			}
		}
		req.Cleanup()
	}
	r.set("serve.serve.hash_ms", hashMS, "ms")
	r.set("serve.serve.decode_ms", decodeMS, "ms")
	r.set("serve.serve.decode_stream_ms", streamMS, "ms")
	r.set("serve.sim.stream_replay_ms", replayMS, "ms")
	return nil
}

// stop drains the server with SIGTERM, waits for it to exit (killing it
// after a grace period) and removes its store.
func (sv *server) stop() error {
	if sv.stopped || sv.cmd == nil || sv.cmd.Process == nil {
		return nil
	}
	sv.stopped = true
	if sv.client != nil {
		sv.client.CloseIdleConnections()
	}
	_ = sv.cmd.Process.Signal(syscall.SIGTERM)
	// The stderr reader ends when the process closes its end of the
	// pipe; only then may Wait close ours.
	drained := make(chan struct{})
	go func() { sv.stderr.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		_ = sv.cmd.Process.Kill()
		<-drained
	}
	err := sv.cmd.Wait()
	if rmErr := os.RemoveAll(sv.storeDir); rmErr != nil {
		return rmErr
	}
	if err != nil {
		return fmt.Errorf("edb-serve exit: %w", err)
	}
	return nil
}
