package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/workload"
)

// Service-grid job shape: one workload, four sizes, small scale.
const (
	gridScale       = 0.05
	gridSizesPerJob = 4
	// gridJobsPerUnit is the number of jobs per ten-second unit, sized so
	// a unit takes about ten seconds on a 2-core machine.
	gridJobsPerUnit = 500
	// gridRepeatPct is the share of jobs that repeat a served grid. It is
	// kept below half so the median job is a fresh one: at exactly half the
	// median would sit between the memoized and the fresh latency modes.
	gridRepeatPct = 40
	// probeJobs is the job count of the short service session other
	// workloads' traced runs use to measure the service layer.
	probeJobs = 40
	// gridSetupReps is how many times a run opens a server on an empty data
	// dir and serves one warm-up job; the last server stays up.
	gridSetupReps = 5
	// gridSubmitRate lifts the admission bucket above what the closed
	// loop can offer, so no job is shed.
	gridSubmitRate = 10000
)

var gridSizesKB = []int{4, 8, 16, 32, 64, 128, 256}

// gridWarmUp is the one-cell job each set-up serves, so that set-up covers
// the service's first request as well as opening it. Its 19 ns cycle time
// lies below every planned job's, so no planned cell is cached by it.
var gridWarmUp = service.GridRequest{Workloads: []string{probeTrace}, Scale: gridScale, SizesKB: []int{8}, CycleNs: 19}

// gridJob is one planned job: a grid request, and whether it repeats a
// grid this client has already been served.
type gridJob struct {
	req    service.GridRequest
	repeat bool
}

// gridPlan builds each client's seeded job list. The seed sets the job
// order, each fresh grid's sizes and cycle time, and which jobs repeat;
// the amount of work does not depend on it. Every client gets the same
// number of jobs, of which exactly gridRepeatPct percent repeat one of the
// same client's earlier grids: a closed loop guarantees the server has
// already served those, so all their cells are memoized. Fresh jobs take
// the Table 1 workloads in turn, each with a cycle time no other job of
// that workload uses, so every cell of a fresh job is new to the server.
func gridPlan(seed int64, clients, jobs int) [][]gridJob {
	rng := rand.New(rand.NewSource(seed))
	names := workload.Names()
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	span := 61 // cycle times 20..80 ns, the paper's range
	if n := jobs/len(names) + 1; n > span {
		span = n
	}
	cycles := make([][]int, len(names))
	for i := range cycles {
		cycles[i] = rng.Perm(span)
	}

	per := jobs / clients
	plan := make([][]gridJob, clients)
	fresh := 0
	for c := range plan {
		// The first job of a client is always fresh.
		repeats := make([]bool, per)
		for i := 1; i <= per*gridRepeatPct/100; i++ {
			repeats[i] = true
		}
		rng.Shuffle(per-1, func(i, j int) { repeats[i+1], repeats[j+1] = repeats[j+1], repeats[i+1] })
		for _, rep := range repeats {
			mine := plan[c]
			if rep {
				plan[c] = append(mine, gridJob{req: mine[rng.Intn(len(mine))].req, repeat: true})
				continue
			}
			sizes := append([]int(nil), gridSizesKB...)
			rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
			sizes = sizes[:gridSizesPerJob]
			sort.Ints(sizes)
			w := fresh % len(names)
			plan[c] = append(mine, gridJob{req: service.GridRequest{
				Workloads: []string{names[w]}, Scale: gridScale,
				SizesKB: sizes, CycleNs: 20 + cycles[w][fresh/len(names)]}})
			fresh++
		}
	}
	return plan
}

// gridServer is one in-process cachesimd: a Service over a fresh data dir
// and its HTTP API on a loopback port.
type gridServer struct {
	svc  *service.Service
	http *http.Server
	url  string
	dir  string
	done chan error
}

// openGridServer opens the service over dir (a fresh temporary directory
// when dir is empty) and starts serving.
func openGridServer(o runOpts, dir string) (*gridServer, error) {
	if dir == "" {
		d, err := os.MkdirTemp(o.tmp, "svc-")
		if err != nil {
			return nil, err
		}
		dir = d
	}
	svc, err := service.Open(service.Config{DataDir: dir, SubmitRate: gridSubmitRate})
	if err != nil {
		return nil, err
	}
	svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Kill()
		return nil, err
	}
	g := &gridServer{svc: svc, http: &http.Server{Handler: service.NewServer(svc)},
		url: "http://" + ln.Addr().String(), dir: dir, done: make(chan error, 1)}
	go func() { g.done <- g.http.Serve(ln) }()
	return g, nil
}

// close stops the HTTP server and drains the service; remove also deletes
// the data dir.
func (g *gridServer) close(remove bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := g.http.Shutdown(ctx)
	if serr := <-g.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := g.svc.Drain(ctx); err == nil {
		err = derr
	}
	if remove {
		if rerr := os.RemoveAll(g.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// jobOutcome is what one client learned about one job.
type jobOutcome struct {
	job     gridJob
	start   time.Time     // when the client began the POST
	total   time.Duration // submit until the result is read
	submit  time.Duration // POST round trip
	fetch   time.Time     // when the client began the GET of the result
	result  time.Duration // GET result round trip
	status  service.JobStatus
	results []service.CellResult
	shed    bool
	err     error
}

// runGrid is the service-grid workload.
func runGrid(o runOpts, traced bool) (*phase, error) {
	return gridSession(o, traced, gridJobsPerUnit*o.units(), "")
}

// gridSession opens a server over dir (a fresh temporary directory when dir
// is "", removed afterwards; tests pass a dir to reuse one on purpose), then
// o.workers closed-loop clients each run their planned jobs: POST the
// request, follow /events until the job is terminal, GET /result.
// Afterwards every distinct cell served is compared with a direct
// CellSpec.Simulate.
func gridSession(o runOpts, traced bool, jobs int, dir string) (*phase, error) {
	ph := &phase{}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: o.workers}}
	defer client.CloseIdleConnections()
	var srv *gridServer
	for i := 0; i < gridSetupReps; i++ {
		if srv != nil {
			if err := srv.close(true); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		s, err := openGridServer(o, dir)
		if err != nil {
			return nil, err
		}
		stale := len(s.svc.Jobs())
		warm := runJob(client, s.url, gridJob{req: gridWarmUp}, nil)
		ph.setupS = append(ph.setupS, time.Since(t).Seconds())
		srv = s
		if i == gridSetupReps-1 || dir != "" {
			ph.check(stale == 0, fmt.Sprintf("stale: data dir %s already holds %d jobs", s.dir, stale))
			ph.check(warm.problem() == "", "warm-up job: "+warm.problem())
			break // a given data dir is opened once, not reset
		}
	}

	plan := gridPlan(o.seed, o.workers, jobs)
	if traced {
		ph.sp = newSpans()
	}
	outs := make([][]jobOutcome, len(plan))
	var all []jobOutcome
	ph.timed(func() []time.Duration {
		var wg sync.WaitGroup
		for cl := range plan {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				for _, j := range plan[cl] {
					outs[cl] = append(outs[cl], runJob(client, srv.url, j, ph.sp))
				}
			}(cl)
		}
		wg.Wait()
		var lat []time.Duration
		for _, co := range outs {
			all = append(all, co...)
			for _, jo := range co {
				lat = append(lat, jo.total)
			}
		}
		return lat
	})
	if err := srv.close(dir == ""); err != nil {
		return nil, err
	}

	served := map[string]service.CellResult{}
	specs := map[string]service.CellSpec{}
	for _, jo := range all {
		ph.attempted++
		if msg := jo.problem(); msg != "" {
			ph.fail(msg)
			continue
		}
		ph.opsDone++
		for _, cs := range jo.job.req.Cells() {
			specs[cs.Key()] = cs
		}
		for _, r := range jo.results {
			if prev, ok := served[r.Key]; ok && prev != r {
				ph.fail(fmt.Sprintf("cell %s: served two different results", r.Key))
			}
			served[r.Key] = r
		}
	}
	ph.opsPerS = float64(ph.opsDone) / ph.wallS
	verifyCells(o, ph, specs, served)
	if traced {
		ph.layers, ph.unaccountedPct = gridLayers(all)
	}
	return ph, nil
}

// problem says what went wrong with a job, or "" when it was served
// correctly: done, one result per planned cell (the server returns them
// sorted by key), and for a fresh grid no cell served from the cache, which
// would mean the cell cache survived from an earlier run.
func (jo *jobOutcome) problem() string {
	want := map[string]bool{}
	for _, cs := range jo.job.req.Cells() {
		want[cs.Key()] = true
	}
	switch {
	case jo.shed:
		return "job shed by admission control"
	case jo.err != nil:
		return jo.err.Error()
	case jo.status.State != service.StateDone:
		return fmt.Sprintf("job %s ended %s: %s", jo.status.ID, jo.status.State, jo.status.Error)
	case len(jo.results) != len(want):
		return fmt.Sprintf("job %s: %d results for %d cells", jo.status.ID, len(jo.results), len(want))
	case !jo.job.repeat && jo.status.Cells.Replayed > 0:
		return fmt.Sprintf("stale: fresh job %s had %d cells already cached", jo.status.ID, jo.status.Cells.Replayed)
	}
	for _, r := range jo.results {
		if !want[r.Key] {
			return fmt.Sprintf("job %s: result for a cell it did not ask for (%s)", jo.status.ID, r.Key)
		}
		delete(want, r.Key)
	}
	return ""
}

// runJob drives one job through the HTTP API.
func runJob(client *http.Client, url string, j gridJob, sp *spans) (out jobOutcome) {
	out.job = j
	t0 := time.Now()
	out.start = t0
	defer func() {
		out.total = time.Since(t0)
		sp.add("service.job", t0, out.total)
	}()
	body, _ := json.Marshal(j.req)
	var st service.JobStatus
	code, err := doJSON(client, http.MethodPost, url+"/v1/jobs", body, &st)
	out.submit = time.Since(t0)
	sp.add("service.submit", t0, out.submit)
	switch {
	case err != nil:
		out.err = err
		return out
	case code == http.StatusTooManyRequests:
		out.shed = true
		return out
	case code != http.StatusAccepted:
		out.err = fmt.Errorf("submit: HTTP %d", code)
		return out
	}

	te := time.Now()
	if err := followEvents(client, url+"/v1/jobs/"+st.ID+"/events"); err != nil {
		out.err = err
		return out
	}
	sp.add("service.events", te, time.Since(te))

	tr := time.Now()
	out.fetch = tr
	var res struct {
		Status  service.JobStatus    `json:"status"`
		Results []service.CellResult `json:"results"`
	}
	code, err = doJSON(client, http.MethodGet, url+"/v1/jobs/"+st.ID+"/result", nil, &res)
	out.result = time.Since(tr)
	sp.add("service.result", tr, out.result)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result of %s: HTTP %d", st.ID, code)
	}
	out.err, out.status, out.results = err, res.Status, res.Results
	return out
}

// doJSON sends one request and decodes a JSON response into v.
func doJSON(client *http.Client, method, url string, body []byte, v any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, url, err)
	}
	return resp.StatusCode, nil
}

// followEvents reads a job's event stream until the server ends it, which
// it does once the job is terminal.
func followEvents(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// verifyCells compares every distinct served cell with a direct
// simulation of its spec, after the timed phase.
func verifyCells(o runOpts, ph *phase, specs map[string]service.CellSpec, served map[string]service.CellResult) {
	keys := make([]string, 0, len(served))
	for k := range served {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := make([]string, len(keys))
	_ = parallel(o.workers, len(keys), func(i int) error {
		want, err := specs[keys[i]].Simulate(context.Background())
		if err != nil {
			bad[i] = fmt.Sprintf("cell %s: direct simulation: %v", keys[i], err)
		} else if want != served[keys[i]] {
			bad[i] = fmt.Sprintf("cell %s: served result differs from direct simulation", keys[i])
		}
		return nil
	})
	for _, b := range bad {
		ph.check(b == "", b)
	}
}

// gridLayers derives the service-layer metrics from the jobs. The server
// stamps Submitted while the client's POST is still in flight, so submit
// and queue overlap; a job's accounted time is therefore the span from the
// POST to the later of the POST's reply and the job's Finished stamp, plus
// the result fetch. The unaccounted share is the median job's remainder
// (mostly the event stream's notification latency) against the median job
// time.
func gridLayers(all []jobOutcome) (map[string]float64, float64) {
	var submit, queue, run, result, total, rest []float64
	var planned, replayed, retried, shed int
	for _, jo := range all {
		if jo.shed {
			shed++
		}
		if jo.problem() != "" {
			continue
		}
		st := jo.status
		submit = append(submit, ms(jo.submit))
		queue = append(queue, ms(st.Started.Sub(st.Submitted)))
		run = append(run, ms(st.Finished.Sub(st.Started)))
		result = append(result, ms(jo.result))
		total = append(total, ms(jo.total))
		served := jo.start.Add(jo.submit)
		if st.Finished.After(served) {
			served = st.Finished
		}
		fetchWait := jo.fetch.Sub(served)
		rest = append(rest, ms(fetchWait))
		planned += st.Cells.Planned
		replayed += st.Cells.Replayed
		retried += st.Cells.Retried
	}
	l := map[string]float64{
		"service.memo_hit_ratio": 0,
		"service.submit_ms":      median(submit),
		"service.queue_ms":       median(queue),
		"service.run_ms":         median(run),
		"service.result_ms":      median(result),
		"service.shed":           float64(shed),
		"service.retried":        float64(retried),
	}
	if planned > 0 {
		l["service.memo_hit_ratio"] = float64(replayed) / float64(planned)
	}
	unacc := 0.0
	if m := median(total); m > 0 {
		unacc = 100 * median(rest) / m
	}
	return l, unacc
}
