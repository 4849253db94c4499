package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/scenario"
)

// Shape of one service-mix job and of the server around it.
const (
	jobRanks      = 2
	jobSteps      = 4
	jobParticles  = 400
	jobClients    = 2
	resubmitEvery = 4  // every 4th submission repeats an earlier one
	telemetryRuns = 16 // TelemetryMaxRuns: the store is bounded
	ckptEvery     = 2  // shorter than a job, so every job writes a checkpoint
	pollEvery     = 5 * time.Millisecond
)

// server is an in-process job server on a loopback listener, the way the
// respirad command wires it.
type server struct {
	srv    *service.Server
	store  *telemetry.Store
	http   *http.Server
	served chan error
	base   string
	client *http.Client
	dir    string
	rec    *recorder // when set, every request of a job is a span
}

// startServer builds the server over fresh telemetry and checkpoint
// directories under dir, recovers (nothing, on a fresh directory),
// starts serving and waits for the first healthy /healthz.
func startServer(dir string) (*server, error) {
	store, err := telemetry.OpenDir(filepath.Join(dir, "telemetry"))
	if err != nil {
		return nil, err
	}
	ckpt := filepath.Join(dir, "checkpoints")
	if err := os.MkdirAll(ckpt, 0o755); err != nil {
		return nil, err
	}
	srv := service.New(service.Config{
		Registry:         scenario.Default,
		Telemetry:        store,
		TelemetryMaxRuns: telemetryRuns,
		CheckpointDir:    ckpt,
		CheckpointEvery:  ckptEvery,
	})
	if ids := srv.Recover(); len(ids) != 0 {
		return nil, fmt.Errorf("recovered %d jobs from a fresh directory", len(ids))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:    srv,
		store:  store,
		http:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: jobClients, MaxIdleConnsPerHost: jobClients}},
		dir:    dir,
	}
	go func() { s.served <- s.http.Serve(ln) }()
	var health struct {
		OK bool `json:"ok"`
	}
	if _, err := s.getJSON("/healthz", &health); err != nil || !health.OK {
		s.stop()
		return nil, fmt.Errorf("first /healthz: ok=%v err=%v", health.OK, err)
	}
	return s, nil
}

// stop shuts the listener down, waits for Serve to return and cancels
// any unfinished job.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: server shutdown: %v\n", err)
	}
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
}

func (s *server) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (s *server) getJSON(path string, v any) (int, error) {
	code, body, err := s.do(http.MethodGet, path, nil)
	if err != nil {
		return code, err
	}
	if code != http.StatusOK {
		return code, fmt.Errorf("GET %s: %d %s", path, code, bytes.TrimSpace(body))
	}
	return code, json.Unmarshal(body, v)
}

// jobSpec is one submission's options.
type jobSpec struct {
	Ranks     int   `json:"ranks"`
	Steps     int   `json:"steps"`
	Particles int   `json:"particles"`
	Seed      int64 `json:"seed"`
}

type jobState struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Shared   bool       `json:"shared"`
	Error    string     `json:"error"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

// jobOutcome is what a client saw of one job.
type jobOutcome struct {
	spec     jobSpec
	state    jobState
	artifact string
	latency  time.Duration // submit to artifact received
	submit   time.Duration // POST round trip
	fetch    time.Duration // artifact GET round trip
	phases   time.Duration // phases GET round trip
	polled   time.Time     // when polling saw the job done
	err      error
	rejected bool
}

// submissions hands out the seeded submission sequence to the clients.
type submissions struct {
	mu    sync.Mutex
	rng   *rand.Rand
	specs []jobSpec
}

func newSubmissions(seed int64) *submissions {
	return &submissions{rng: newRand(seed, 3)}
}

// next returns the k-th submission: a fresh seed, except that every
// resubmitEvery-th repeats an earlier submission exactly.
func (s *submissions) next() jobSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	spec := jobSpec{Ranks: jobRanks, Steps: jobSteps, Particles: jobParticles}
	if k := len(s.specs); k%resubmitEvery == resubmitEvery-1 {
		spec = s.specs[s.rng.Int64N(int64(k))]
	} else {
		spec.Seed = 1 + s.rng.Int64N(1<<40)
	}
	s.specs = append(s.specs, spec)
	return spec
}

// runJob submits one job and follows it to its artifact and phases.
func (s *server) runJob(spec jobSpec) jobOutcome {
	out := jobOutcome{spec: spec}
	body, err := json.Marshal(map[string]any{"scenario": repro.ScenarioBreathing, "options": spec})
	if err != nil {
		out.err = err
		return out
	}
	t0 := time.Now()
	code, resp, err := s.do(http.MethodPost, "/jobs", body)
	out.submit = time.Since(t0)
	defer func() { s.spans(out, t0) }()
	switch {
	case err != nil:
		out.err = err
		return out
	case code == http.StatusTooManyRequests:
		out.rejected = true
		out.err = fmt.Errorf("refused: %s", bytes.TrimSpace(resp))
		return out
	case code != http.StatusCreated:
		out.err = fmt.Errorf("POST /jobs: %d %s", code, bytes.TrimSpace(resp))
		return out
	}
	if err := json.Unmarshal(resp, &out.state); err != nil {
		out.err = err
		return out
	}
	for out.state.State == "queued" || out.state.State == "running" || out.state.State == "retrying" {
		time.Sleep(pollEvery)
		if _, err := s.getJSON("/jobs/"+out.state.ID, &out.state); err != nil {
			out.err = err
			return out
		}
	}
	if out.state.State != "done" {
		out.err = fmt.Errorf("job %s ended %s: %s", out.state.ID, out.state.State, out.state.Error)
		return out
	}
	out.polled = time.Now()
	code, art, err := s.do(http.MethodGet, "/jobs/"+out.state.ID+"/artifact", nil)
	out.fetch = time.Since(out.polled)
	out.latency = time.Since(t0)
	if err != nil || code != http.StatusOK {
		out.err = fmt.Errorf("GET artifact: %d %v", code, err)
		return out
	}
	out.artifact = string(art)
	// A job served from the memo ran nothing and has no telemetry.
	t2 := time.Now()
	code, _, err = s.do(http.MethodGet, "/jobs/"+out.state.ID+"/phases", nil)
	out.phases = time.Since(t2)
	if err != nil || (code != http.StatusOK && !(out.state.Shared && code == http.StatusNotFound)) {
		out.err = fmt.Errorf("GET phases: %d %v", code, err)
	}
	return out
}

// spans records a job's requests as spans of the job's trace: submit,
// poll until done, artifact fetch, phases read.
func (s *server) spans(out jobOutcome, t0 time.Time) {
	if s.rec == nil || out.state.ID == "" {
		return
	}
	id := out.state.ID
	s.rec.add("service.POST /jobs", id, -1, t0, t0.Add(out.submit))
	if out.polled.IsZero() {
		return
	}
	s.rec.add("service.poll", id, -1, t0.Add(out.submit), out.polled)
	s.rec.add("service.GET artifact", id, -1, out.polled, out.polled.Add(out.fetch))
	if out.phases > 0 {
		end := t0.Add(out.latency)
		s.rec.add("service.GET phases", id, -1, end, end.Add(out.phases))
	}
}

// drive runs the closed loop: jobClients clients, each submitting its
// next job when the previous one's artifact and phases arrived, until
// the deadline passes and enough jobs finished for a p90, or ctx ends.
func (s *server) drive(ctx context.Context, subs *submissions, deadline time.Time, minJobs int) ([]jobOutcome, time.Duration) {
	var (
		mu   sync.Mutex
		outs []jobOutcome
		wg   sync.WaitGroup
	)
	more := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return ctx.Err() == nil && (time.Now().Before(deadline) || len(outs) < minJobs)
	}
	start := time.Now()
	for c := 0; c < jobClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more() {
				o := s.runJob(subs.next())
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// referenceArtifacts runs each distinct submission in-process through
// the registry, two at a time, after the measured window.
func referenceArtifacts(ctx context.Context, specs []jobSpec) (map[jobSpec]string, error) {
	sc, err := scenario.Default.Get(repro.ScenarioBreathing)
	if err != nil {
		return nil, err
	}
	todo := make(chan jobSpec)
	var (
		mu   sync.Mutex
		refs = map[jobSpec]string{}
		errs []error
		wg   sync.WaitGroup
	)
	for w := 0; w < jobClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range todo {
				art, err := sc.Run(ctx, scenario.NewParams(scenario.WithRanks(spec.Ranks),
					scenario.WithSteps(spec.Steps), scenario.WithParticles(spec.Particles), scenario.WithSeed(spec.Seed)))
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					refs[spec] = art.Text()
				}
				mu.Unlock()
			}
		}()
	}
	seen := map[jobSpec]bool{}
	for _, spec := range specs {
		if !seen[spec] {
			seen[spec] = true
			todo <- spec
		}
	}
	close(todo)
	wg.Wait()
	return refs, errors.Join(errs...)
}

func runServiceMix(ctx context.Context, o options) (*endToEnd, error) {
	e := &endToEnd{op: "job"}
	// Set-up is server construction, recovery and the first /healthz. The
	// last repetition's server serves the run; the others are stopped
	// before it starts.
	var servers []*server
	err := e.timeSetup(func() error {
		s, err := startServer(filepath.Join(o.work, fmt.Sprintf("server-%d", len(servers))))
		if err == nil {
			servers = append(servers, s)
		}
		return err
	})
	if err != nil {
		for _, s := range servers {
			s.stop()
		}
		return nil, err
	}
	for _, s := range servers[:len(servers)-1] {
		s.stop()
	}
	s := servers[len(servers)-1]
	defer s.stop()

	subs := newSubmissions(o.seed)
	// Warm-up: one job of the same shape on its own seed stream, checked,
	// not timed.
	e.attempted++
	warmSeed := 1 + newRand(o.seed, 4).Int64N(1<<40)
	warm := s.runJob(jobSpec{Ranks: jobRanks, Steps: jobSteps, Particles: jobParticles, Seed: warmSeed})
	e.checkErr("warm-up job", warm.err)

	outs, wall := s.drive(ctx, subs, time.Now().Add(o.window), samplesFor(0.9))
	var specs []jobSpec
	var phasesMS []float64
	shared, rejected := 0, 0
	for _, out := range outs {
		e.attempted++
		if out.rejected {
			rejected++
		}
		if !e.checkErr("job "+out.state.ID, out.err) {
			continue
		}
		e.ops = append(e.ops, out.latency)
		e.done++
		specs = append(specs, out.spec)
		if out.state.Shared {
			shared++
		} else if out.state.Started != nil && out.state.Finished != nil {
			e.runs = append(e.runs, out.state.Finished.Sub(*out.state.Started))
			phasesMS = append(phasesMS, ms(out.phases))
		}
	}
	e.busy = wall

	refs, err := referenceArtifacts(ctx, append(specs, warm.spec))
	if err != nil {
		e.fail("in-process reference runs: %v", err)
	}
	for _, out := range append(outs, warm) {
		if out.err == nil && refs[out.spec] != "" && out.artifact != refs[out.spec] {
			e.fail("job %s (seed %d): artifact differs from the same scenario run in-process", out.state.ID, out.spec.Seed)
		}
	}
	if len(e.runs) == 0 {
		return nil, fmt.Errorf("no job ran")
	}

	jobs := durationsMS(e.ops)
	e.note("job_ms_p50", median(jobs), "ms", len(jobs))
	if p90, ok := percentile(jobs, 0.9); ok {
		e.note("job_ms_p90", p90, "ms", len(jobs))
	}
	e.note("jobs_per_s", float64(e.done)/wall.Seconds(), "1/s", 0)
	e.note("run_ms", 1000*median(secondsOf(e.runs)), "ms", len(e.runs))
	e.note("phases_read_ms", median(phasesMS), "ms", len(phasesMS))
	e.note("share.exact_resubmissions", float64(len(subs.specs)/resubmitEvery)/float64(len(subs.specs)), "ratio", 0)
	e.note("share.memo_hits_measured", float64(shared)/float64(len(specs)), "ratio", 0)
	e.note("rejected", float64(rejected), "count", 0)
	return e, nil
}
