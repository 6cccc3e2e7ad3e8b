package chaos

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"syscall"
	"time"

	"openmpmca/internal/jobservice"
)

// CrashCampaign is the durability property test: a real server process
// with a durable state dir is loaded over HTTP, SIGKILLed mid-flight —
// no graceful shutdown, no flush — restarted over the same state dir,
// and every job accepted before the kill must still settle with its
// byte-exact closed-form result. Kills counts kill/restart cycles; a
// final, graceful life drains whatever the last kill left behind.
//
// Unlike the in-process campaigns, the server is an external binary
// (ServeBin) driven over real sockets, so the kill is a genuine
// process death: the only state that survives is what the write-ahead
// journal fsynced before each HTTP 202.
type CrashCampaign struct {
	Name     string   `json:"name"`
	Seed     int64    `json:"seed"`
	ServeBin string   `json:"serve_bin"` // server binary: accepts -state-dir/-addr, prints the readiness line
	Args     []string `json:"args,omitempty"`
	Env      []string `json:"env,omitempty"` // extra environment for every life
	StateDir string   `json:"state_dir"`
	// Jobs is the closed-form load submitted per life (sum/fib/echo and
	// parallel-for vecsum, expectations computed client-side).
	Jobs int `json:"jobs"`
	// Spins is the count of long spin jobs submitted immediately before
	// each kill, guaranteeing work is queued or mid-flight when the
	// process dies.
	Spins   int           `json:"spins"`
	SpinDur time.Duration `json:"spin_dur"`
	Kills   int           `json:"kills"`
}

// withCrashDefaults fills zero fields.
func (c CrashCampaign) withCrashDefaults() CrashCampaign {
	if c.Name == "" {
		c.Name = "crash"
	}
	if c.Jobs <= 0 {
		c.Jobs = 16
	}
	if c.Spins <= 0 {
		c.Spins = 4
	}
	if c.SpinDur <= 0 {
		c.SpinDur = 500 * time.Millisecond
	}
	if c.Kills <= 0 {
		c.Kills = 1
	}
	return c
}

// readyLine matches the server's stable readiness line.
var readyLine = regexp.MustCompile(`listening on (https?://\S+)`)

// serverProc is one life of the server under test.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port parsed from the readiness line
	stderr *bytes.Buffer
}

// startServer boots one life and waits for the readiness line.
func startServer(c CrashCampaign) (*serverProc, error) {
	args := append([]string{"-state-dir", c.StateDir, "-addr", "127.0.0.1:0"}, c.Args...)
	cmd := exec.Command(c.ServeBin, args...)
	cmd.Env = append(os.Environ(), c.Env...)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, stderr: &errBuf}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if m := readyLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case ready <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case p.base = <-ready:
		return p, nil
	case <-time.After(15 * time.Second):
		p.kill()
		return nil, fmt.Errorf("server never printed its readiness line; stderr:\n%s", errBuf.String())
	}
}

// kill is the crash: SIGKILL, no shutdown, no flush.
func (p *serverProc) kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
	}
	_, _ = p.cmd.Process.Wait()
}

// shutdown ends the final life gracefully (SIGTERM, then SIGKILL if it
// lingers), so the campaign does not leak processes.
func (p *serverProc) shutdown() {
	if p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _, _ = p.cmd.Process.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}

// crashJob is one job the campaign tracks across process lives.
type crashJob struct {
	id     string
	name   string
	expect []byte
}

// RunCrash executes one crash-restart campaign. The admin demo tenant
// (alice) drives everything, which is what ServeBin installs when run
// without tenant flags.
func RunCrash(c CrashCampaign) (res Result) {
	c = c.withCrashDefaults()
	res = Result{Campaign: c.Name, Seed: c.Seed, Workload: "crash"}
	start := time.Now()
	defer func() { res.Elapsed = time.Since(start) }()
	if c.ServeBin == "" || c.StateDir == "" {
		res.fail("crash campaign needs ServeBin and StateDir")
		return res
	}
	const key = "key-alice"

	var tracked []crashJob
	submit := func(p *serverProc, name string, body map[string]any, expect []byte) {
		code, env, err := do(p.base, http.MethodPost, "/v1/jobs", key, body)
		if err != nil {
			res.fail("submit %s: %v", name, err)
			return
		}
		if code != http.StatusAccepted {
			res.fail("submit %s: HTTP %d %s", name, code, env.Error)
			return
		}
		var view struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(env.Metadata, &view); err != nil || view.ID == "" {
			res.fail("submit %s: bad view: %v", name, err)
			return
		}
		res.Submitted++
		tracked = append(tracked, crashJob{id: view.ID, name: name, expect: expect})
	}

	// load submits the per-life mix: closed-form quick jobs, then the
	// spin jobs that are guaranteed to be unsettled at the kill.
	load := func(p *serverProc, life int) {
		for i := 0; i < c.Jobs; i++ {
			k := int(c.Seed) + life*c.Jobs + i
			switch i % 4 {
			case 0, 1:
				lo, hi := int64(k)*5, int64(k)*5+int64(60+k%31)
				submit(p, "sum", map[string]any{"job": jobservice.JobSum, "arg": jobservice.I64Pair(lo, hi)},
					jobservice.SumExpected(lo, hi))
			case 2:
				n := uint64(12 + k%50)
				submit(p, "fib", map[string]any{"job": jobservice.JobFib, "arg": jobservice.U64(n)},
					jobservice.FibExpected(n))
			default:
				n := 10000 + k*311
				submit(p, "vecsum", map[string]any{"job": jobservice.KernelVecSum, "kind": "parallel_for", "n": n},
					jobservice.VecSumExpected(n))
			}
		}
		arg := jobservice.U64(uint64(c.SpinDur))
		for i := 0; i < c.Spins; i++ {
			submit(p, "spin", map[string]any{"job": jobservice.JobSpin, "arg": arg}, arg)
		}
	}

	// Kill lives: load, then die with the spins still in flight.
	for life := 0; life < c.Kills; life++ {
		p, err := startServer(c)
		if err != nil {
			res.fail("life %d: %v", life, err)
			return res
		}
		load(p, life)
		p.kill()
	}

	// The final life replays the journal and must drain everything.
	p, err := startServer(c)
	if err != nil {
		res.fail("final life: %v", err)
		return res
	}
	defer p.shutdown()

	deadline := time.Now().Add(drainBudget)
	pending := append([]crashJob(nil), tracked...)
	for len(pending) > 0 && time.Now().Before(deadline) {
		var still []crashJob
		for _, j := range pending {
			code, env, err := do(p.base, http.MethodGet, "/v1/jobs/"+j.id, key, nil)
			if err != nil {
				res.fail("poll %s: %v", j.id, err)
				continue
			}
			if code != http.StatusOK {
				// A job accepted (202 + fsync) before the kill that the
				// restarted server does not know about is LOST.
				res.Lost++
				res.fail("%s %s: lost across restart: HTTP %d %s", j.name, j.id, code, env.Error)
				continue
			}
			var view struct {
				Status    string `json:"status"`
				Result    []byte `json:"result"`
				Error     string `json:"error"`
				Recovered bool   `json:"recovered"`
			}
			if err := json.Unmarshal(env.Metadata, &view); err != nil {
				res.fail("poll %s: bad view: %v", j.id, err)
				continue
			}
			switch view.Status {
			case jobservice.StatusSucceeded:
				res.Settled++
				if view.Recovered {
					res.Recovered++
				}
				if bytes.Equal(view.Result, j.expect) {
					res.Exact++
				} else {
					res.Inexact++
					res.fail("%s %s: payload %x, want %x", j.name, j.id, view.Result, j.expect)
				}
			case jobservice.StatusFailed, jobservice.StatusCanceled:
				// Every builtin is deterministic and nothing cancels
				// here: any terminal error means the replay corrupted
				// work.
				res.Settled++
				res.fail("%s %s: %s: %s", j.name, j.id, view.Status, view.Error)
			default:
				still = append(still, j)
			}
		}
		pending = still
		if len(pending) > 0 {
			time.Sleep(20 * time.Millisecond)
		}
	}
	for _, j := range pending {
		res.Lost++
		res.fail("%s %s: never settled after restart", j.name, j.id)
	}

	// The spins could not have finished before their kill, so the final
	// life must have replayed work — and the stats surface must say so.
	if res.Recovered == 0 {
		res.fail("no job was flagged recovered: the kills landed on an idle server")
	}
	code, env, err := do(p.base, http.MethodGet, "/v1/stats", key, nil)
	if err != nil || code != http.StatusOK {
		res.fail("/v1/stats: HTTP %d err=%v", code, err)
		return res
	}
	var snap struct {
		Service *struct {
			Replayed uint64 `json:"replayed"`
		} `json:"service"`
		Durable *json.RawMessage `json:"durable"`
	}
	if err := json.Unmarshal(env.Metadata, &snap); err != nil || snap.Service == nil {
		res.fail("/v1/stats: bad snapshot: %v", err)
		return res
	}
	if snap.Durable == nil {
		res.fail("/v1/stats: no durable section on a -state-dir server")
	}
	if snap.Service.Replayed == 0 {
		res.fail("/v1/stats: replayed = 0 after %d kill(s) with spins in flight", c.Kills)
	}
	return res
}
