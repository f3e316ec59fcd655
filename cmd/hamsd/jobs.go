package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"hams/internal/api"
	"hams/internal/checkpoint"
	"hams/internal/report"
	"hams/internal/runner"
	"hams/internal/trace"
)

// Submission-time admission errors; the HTTP layer maps them to 503
// and 429.
var (
	errDraining = errors.New("hamsd: draining, not accepting new jobs")
	errOverCap  = errors.New("hamsd: client over its in-flight job cap")
)

// job is one submitted JobSpec's lifecycle. Cells arrive twice: in
// completion order while running (streamed, the live NDJSON feed) and
// in canonical order once done (final, what a late GET serves — the
// byte-identical-to-CLI ordering). Both hold the same set.
type job struct {
	id string

	mu       sync.Mutex
	changed  chan struct{} // closed and replaced on every update
	spec     api.JobSpec
	client   string
	state    string
	errMsg   string
	submit   time.Time
	started  time.Time
	finished time.Time
	streamed []report.Cell
	final    []report.Cell
	cancel   context.CancelFunc
}

// notify must be called with j.mu held.
func (j *job) notify() {
	close(j.changed)
	j.changed = make(chan struct{})
}

func (j *job) addCell(c report.Cell) {
	j.mu.Lock()
	j.streamed = append(j.streamed, c)
	j.notify()
	j.mu.Unlock()
}

func terminal(state string) bool {
	return state == api.StateDone || state == api.StateFailed || state == api.StateCanceled
}

func (j *job) status() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.streamed)
	if j.final != nil {
		n = len(j.final)
	}
	return api.JobStatus{
		ID: j.id, State: j.state, Kind: j.spec.Kind, Client: j.client,
		Cells: n, Submitted: j.submit, Started: j.started, Finished: j.finished,
		Error: j.errMsg,
	}
}

// next returns the cells past index i, whether the job is terminal,
// and a channel that closes on the next update — the snapshot a
// streaming handler loops on.
func (j *job) next(i int) (cells []report.Cell, done bool, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i == 0 && j.final != nil {
		// Nothing streamed yet and the job already finished: serve the
		// canonical ordering directly.
		return append([]report.Cell(nil), j.final...), true, j.changed
	}
	if i < len(j.streamed) {
		cells = append(cells, j.streamed[i:]...)
	}
	return cells, terminal(j.state), j.changed
}

// store holds uploaded objects by ID — the hamsd side of the api
// resolver seams. IDs, not paths: a job body must not be able to read
// arbitrary daemon-filesystem files.
type store[T any] struct {
	prefix string // IDs are prefix-1, prefix-2, ...
	noun   string // names the object and its upload route in errors

	mu   sync.Mutex
	seq  int
	byID map[string]T
}

func newStore[T any](prefix, noun string) *store[T] {
	return &store[T]{prefix: prefix, noun: noun, byID: make(map[string]T)}
}

func (s *store[T]) Put(v T) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	id := fmt.Sprintf("%s-%d", s.prefix, s.seq)
	s.byID[id] = v
	return id
}

func (s *store[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

func (s *store[T]) get(ref string) (T, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.byID[ref]
	if !ok {
		return v, fmt.Errorf("hamsd: unknown %s %q (upload it via POST /v1/%ss first)", s.noun, ref, s.noun)
	}
	return v, nil
}

// traceStore is the daemon's api.TraceResolver.
type traceStore struct{ *store[*trace.File] }

func (s traceStore) Trace(ref string) (*trace.File, error) { return s.get(ref) }

// checkpointStore is the daemon's api.CheckpointResolver.
type checkpointStore struct{ *store[*checkpoint.Image] }

func (s checkpointStore) Checkpoint(ref string) (*checkpoint.Image, error) { return s.get(ref) }

// managerConfig sizes the manager; see envConfig for the variables.
type managerConfig struct {
	Workers    int            // shared cell pool size (<=0 = GOMAXPROCS)
	MaxActive  int            // jobs simulating concurrently (<=0 = 4)
	DefaultCap int            // per-client queued+running cap (<=0 = unlimited)
	ClientCaps map[string]int // per-client overrides of DefaultCap
	Log        *slog.Logger
}

// manager owns the job table, the shared worker pool and admission
// control. One pool serves every job — per-job worker counts in specs
// are ignored server-side — so N concurrent jobs multiplex onto a
// fixed simulation capacity instead of oversubscribing the host.
type manager struct {
	log         *slog.Logger
	pool        *runner.Pool
	traces      traceStore
	checkpoints checkpointStore
	sem         chan struct{}
	defCap      int
	caps        map[string]int

	mu        sync.Mutex
	jobs      map[string]*job
	order     []string
	seq       int
	inflight  map[string]int       // queued+running per client
	durations map[string][]float64 // finished-job wall ms per client
	draining  bool
	wg        sync.WaitGroup

	// exec is the job executor (api.Execute), swappable in tests to
	// pin scheduling behavior without simulating anything.
	exec func(api.JobSpec, api.ExecOptions) ([]report.Cell, error)
}

func newManager(cfg managerConfig) *manager {
	maxActive := cfg.MaxActive
	if maxActive <= 0 {
		maxActive = 4
	}
	log := cfg.Log
	if log == nil {
		log = slog.Default()
	}
	return &manager{
		log:         log,
		pool:        runner.NewPool(cfg.Workers),
		traces:      traceStore{newStore[*trace.File]("upload", "trace")},
		checkpoints: checkpointStore{newStore[*checkpoint.Image]("ckpt", "checkpoint")},
		sem:         make(chan struct{}, maxActive),
		defCap:      cfg.DefaultCap,
		caps:        cfg.ClientCaps,
		jobs:        make(map[string]*job),
		inflight:    make(map[string]int),
		durations:   make(map[string][]float64),
		exec:        api.Execute,
	}
}

func clientName(spec api.JobSpec) string {
	if spec.Client == "" {
		return "default"
	}
	return spec.Client
}

func (m *manager) capFor(client string) int {
	if c, ok := m.caps[client]; ok {
		return c
	}
	return m.defCap
}

// Submit validates admission (drain state, per-client cap), registers
// the job and starts its lifecycle goroutine. The spec must already
// have passed api.Validate.
func (m *manager) Submit(spec api.JobSpec) (*job, error) {
	client := clientName(spec)
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, errDraining
	}
	if c := m.capFor(client); c > 0 && m.inflight[client] >= c {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d in flight)", errOverCap, m.inflight[client])
	}
	m.seq++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:      fmt.Sprintf("job-%d", m.seq),
		changed: make(chan struct{}),
		spec:    spec,
		client:  client,
		state:   api.StateQueued,
		submit:  time.Now(),
		cancel:  cancel,
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.inflight[client]++
	m.wg.Add(1)
	m.mu.Unlock()
	m.log.Info("job submitted", "job", j.id, "kind", spec.Kind, "client", client)
	go m.run(ctx, j)
	return j, nil
}

func (m *manager) run(ctx context.Context, j *job) {
	defer m.wg.Done()
	// Queued until a running slot frees up; a cancel while queued never
	// simulates a cell.
	select {
	case m.sem <- struct{}{}:
	case <-ctx.Done():
		m.finish(j, nil, ctx.Err())
		return
	}
	defer func() { <-m.sem }()

	j.mu.Lock()
	if terminal(j.state) { // canceled between slot grant and start
		j.mu.Unlock()
		return
	}
	j.state = api.StateRunning
	j.started = time.Now()
	j.notify()
	j.mu.Unlock()

	cells, err := m.exec(j.spec, api.ExecOptions{
		Ctx:         ctx,
		Runner:      m.pool,
		Traces:      m.traces,
		Checkpoints: m.checkpoints,
		Progress:    j.addCell,
	})
	m.finish(j, cells, err)
}

// finish moves a job to its terminal state and releases its admission
// slot.
func (m *manager) finish(j *job, cells []report.Cell, err error) {
	j.mu.Lock()
	if terminal(j.state) {
		j.mu.Unlock()
		return
	}
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = api.StateDone
		j.final = cells
	case errors.Is(err, context.Canceled):
		j.state = api.StateCanceled
		j.errMsg = "canceled"
	default:
		j.state = api.StateFailed
		j.errMsg = err.Error()
	}
	state, client := j.state, j.client
	var wallMS float64
	if !j.started.IsZero() {
		wallMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	}
	j.notify()
	j.mu.Unlock()

	m.mu.Lock()
	m.inflight[client]--
	if m.inflight[client] <= 0 {
		delete(m.inflight, client)
	}
	if state == api.StateDone {
		m.durations[client] = append(m.durations[client], wallMS)
	}
	m.mu.Unlock()
	if err != nil && state == api.StateFailed {
		m.log.Warn("job failed", "job", j.id, "client", client, "err", err)
	} else {
		m.log.Info("job "+state, "job", j.id, "client", client, "cells", len(cells), "wall_ms", int64(wallMS))
	}
}

func (m *manager) Get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns every job's status in submission order.
func (m *manager) Jobs() []api.JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*job, len(ids))
	for i, id := range ids {
		jobs[i] = m.jobs[id]
	}
	m.mu.Unlock()
	out := make([]api.JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// Cancel stops a job: a queued job never runs; a running job stops
// dispatching new cells (in-flight cells complete — the simulator core
// does not poll the context).
func (m *manager) Cancel(id string) bool {
	j, ok := m.Get(id)
	if !ok {
		return false
	}
	j.cancel()
	return true
}

// Drain refuses new submissions; already-accepted jobs keep running.
func (m *manager) Drain() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
}

func (m *manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Wait blocks until every accepted job reaches a terminal state, then
// shuts the worker pool down.
func (m *manager) Wait() {
	m.wg.Wait()
	m.pool.Close()
}

// quantile is the nearest-rank percentile of an unsorted sample set.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// clientStats is one client's admission and service-latency view.
type clientStats struct {
	Inflight int     `json:"inflight"`
	Cap      int     `json:"cap,omitempty"` // 0 = unlimited
	Done     int     `json:"done"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
}

// statsSnapshot is the GET /v1/stats body and the 10s log line's
// source.
type statsSnapshot struct {
	Jobs        map[string]int         `json:"jobs"` // state -> count
	Workers     int                    `json:"workers"`
	Busy        int                    `json:"workers_busy"`
	Cells       int64                  `json:"cells_completed"`
	Traces      int                    `json:"traces"`
	Checkpoints int                    `json:"checkpoints"`
	Clients     map[string]clientStats `json:"clients"`
	Draining    bool                   `json:"draining"`
}

func (m *manager) Stats() statsSnapshot {
	s := statsSnapshot{
		Jobs: map[string]int{
			api.StateQueued: 0, api.StateRunning: 0, api.StateDone: 0,
			api.StateFailed: 0, api.StateCanceled: 0,
		},
		Workers:     m.pool.Workers(),
		Busy:        m.pool.Busy(),
		Cells:       m.pool.Completed(),
		Traces:      m.traces.Len(),
		Checkpoints: m.checkpoints.Len(),
		Clients:     make(map[string]clientStats),
	}
	for _, st := range m.Jobs() {
		s.Jobs[st.State]++
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s.Draining = m.draining
	seen := make(map[string]bool)
	for c := range m.inflight {
		seen[c] = true
	}
	for c := range m.durations {
		seen[c] = true
	}
	for c := range seen {
		ds := append([]float64(nil), m.durations[c]...)
		sort.Float64s(ds)
		s.Clients[c] = clientStats{
			Inflight: m.inflight[c],
			Cap:      m.capFor(c),
			Done:     len(ds),
			P50MS:    quantile(ds, 0.50),
			P95MS:    quantile(ds, 0.95),
			P99MS:    quantile(ds, 0.99),
		}
	}
	return s
}
