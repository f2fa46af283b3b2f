package mpbackend

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"
)

// Env variables of the worker re-exec protocol: the coordinator spawns
// the current executable again with these set, and MaybeWorker — called
// first thing from main() or TestMain — detects them and runs the rank
// instead of the normal program.
const (
	envDir  = "COLLMP_DIR"
	envRank = "COLLMP_RANK"
)

// Body is one registered SPMD body: it runs on every rank of the process
// group with the job's parameters and returns a JSON-serializable result
// the coordinator collects. Closures cannot cross process boundaries, so
// the coordinator names a body and ships parameters; both sides resolve
// the name in the same registry, compiled into the shared executable.
type Body func(p *Proc, params json.RawMessage) (any, error)

var bodies = map[string]Body{}

// Register adds a body under name. Call from init (or from TestMain
// before MaybeWorker), so the registration exists in the re-executed
// worker too. Registering a duplicate name panics.
func Register(name string, b Body) {
	if _, dup := bodies[name]; dup {
		panic(fmt.Sprintf("mpbackend: body %q registered twice", name))
	}
	bodies[name] = b
}

// jobSpec is the job description the coordinator writes to job.json.
type jobSpec struct {
	Body       string          `json:"body"`
	P          int             `json:"p"`
	TimeoutSec float64         `json:"timeout_sec"`
	Params     json.RawMessage `json:"params"`
}

// rankOut is one rank's result envelope (out.<rank>.json).
type rankOut struct {
	Result json.RawMessage `json:"result,omitempty"`
	// Msgs, Words and Ops are the rank's traffic and work counters,
	// comparable with the other backends' Result fields.
	Msgs  int     `json:"msgs"`
	Words int     `json:"words"`
	Ops   float64 `json:"ops"`
}

// MaybeWorker turns the current process into a multi-process rank when
// the coordinator's environment variables are set, and returns without
// effect otherwise. Every binary that coordinates multi-process runs —
// including test binaries, via TestMain — must call it before doing
// anything else, because the coordinator re-executes the running binary
// to spawn ranks. When acting as a worker it never returns: it runs the
// job body and exits.
func MaybeWorker() {
	dir := os.Getenv(envDir)
	if dir == "" {
		return
	}
	rank, err := strconv.Atoi(os.Getenv(envRank))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpbackend: bad %s: %v\n", envRank, err)
		os.Exit(3)
	}
	if err := runWorker(dir, rank); err != nil {
		fmt.Fprintf(os.Stderr, "mpbackend: rank %d: %v\n", rank, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runWorker executes one rank of the job described in dir.
func runWorker(dir string, rank int) (err error) {
	data, err := os.ReadFile(filepath.Join(dir, "job.json"))
	if err != nil {
		return err
	}
	var spec jobSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("bad job.json: %v", err)
	}
	if rank < 0 || rank >= spec.P {
		return fmt.Errorf("rank %d out of range [0,%d)", rank, spec.P)
	}
	body, ok := bodies[spec.Body]
	if !ok {
		return fmt.Errorf("no body named %q compiled into this binary", spec.Body)
	}
	timeout := time.Duration(spec.TimeoutSec * float64(time.Second))
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	// Belt-and-braces watchdog: a wedged rank exits on its own even if
	// the coordinator's kill never arrives, and says what it was blocked
	// on — the coordinator quotes the line in the job's error.
	var running atomic.Pointer[Proc]
	watchdog := time.AfterFunc(timeout, func() {
		state := "connecting"
		if pr := running.Load(); pr != nil {
			state = pr.WaitState()
		}
		fmt.Fprintf(os.Stderr, "mpbackend: rank %d timed out after %v: %s\n", rank, timeout, state)
		os.Exit(3)
	})
	defer watchdog.Stop()
	pr, err := connect(dir, rank, spec.P, time.Now().Add(timeout))
	if err != nil {
		return err
	}
	defer pr.sock.close()
	running.Store(pr)
	res, err := func() (res any, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return body(pr, spec.Params)
	}()
	if err != nil {
		// A failed rank skips the final barrier and exits non-zero: its
		// closed links unwedge the others, and its error reaches the
		// coordinator through stderr like any other failure.
		return err
	}
	out := rankOut{Msgs: pr.Count.Sent, Words: pr.Count.Words, Ops: pr.Count.Ops}
	if res != nil {
		if out.Result, err = json.Marshal(res); err != nil {
			return fmt.Errorf("unmarshalable body result: %v", err)
		}
	}
	// Orderly shutdown: meet every peer at a final barrier before
	// closing any link, so no rank observes EOF mid-protocol.
	func() {
		defer func() { recover() }() // a peer may have failed already
		pr.Barrier()
	}()
	data, err = json.Marshal(out)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, fmt.Sprintf("out.%d.tmp", rank))
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, fmt.Sprintf("out.%d.json", rank)))
}
