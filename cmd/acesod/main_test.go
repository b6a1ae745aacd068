package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "acesod-cli")
	if err != nil {
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "acesod")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		os.Stderr.Write(out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var servingOn = regexp.MustCompile(`serving on (\S+) `)

// daemon is one acesod process listening on an ephemeral loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string        // http://<addr>
	done chan struct{} // closed when stderr reaches EOF

	mu     sync.Mutex
	stderr strings.Builder
}

// startDaemon starts the built binary on 127.0.0.1:0 and reads the
// address it bound from its "serving on" log line.
func startDaemon(t *testing.T) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(binPath, "-addr", "127.0.0.1:0"), done: make(chan struct{})}
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			d.mu.Lock()
			d.stderr.WriteString(sc.Text() + "\n")
			d.mu.Unlock()
			if m := servingOn.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default: // the address is logged once; never block the drain of stderr
				}
			}
		}
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.done
		d.cmd.Wait()
	})
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		t.Fatalf("acesod exited before serving:\n%s", d.log())
	case <-time.After(30 * time.Second):
		t.Fatalf("acesod logged no address:\n%s", d.log())
	}
	return d
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// terminate sends a real SIGTERM and returns the exit code once the
// process has drained and exited.
func (d *daemon) terminate(t *testing.T) int {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("acesod did not exit after SIGTERM:\n%s", d.log())
	}
	var ee *exec.ExitError
	if err := d.cmd.Wait(); errors.As(err, &ee) {
		return ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return 0
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestSIGTERMDrainsInFlightPlan drives the daemon's shutdown path: a
// SIGTERM that arrives while a search holds its slot must let that
// request finish with 200, exit 0, and leave the final metrics
// snapshot on stderr.
func TestSIGTERMDrainsInFlightPlan(t *testing.T) {
	t.Parallel()
	d := startDaemon(t)
	if code, body := get(t, d.base+"/healthz"); code != http.StatusOK {
		t.Fatalf("GET /healthz: %d %s", code, body)
	}

	type result struct {
		code int
		body string
		err  error
	}
	plan := make(chan result, 1)
	go func() {
		// A one-second search: still running when the signal lands.
		resp, err := http.Post(d.base+"/v1/plan", "application/json", strings.NewReader(
			`{"model":{"family":"gpt3","size":"350M"},"cluster":{"nodes":1,"restrict":4},`+
				`"options":{"budget_ms":1000,"stage_counts":[1,2],"seed":1}}`))
		if err != nil {
			plan <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		plan <- result{resp.StatusCode, string(body), err}
	}()

	// Signal only once the request holds a search slot.
	for {
		if _, metrics := get(t, d.base+"/metrics"); strings.Contains(metrics, "\naceso_serve_inflight 1\n") {
			break
		}
		select {
		case r := <-plan:
			t.Fatalf("plan finished before it was seen in flight: %+v", r)
		case <-time.After(10 * time.Millisecond):
		}
	}
	exit := d.terminate(t)

	r := <-plan
	if r.err != nil || r.code != http.StatusOK || !strings.Contains(r.body, `"plan"`) {
		t.Errorf("in-flight plan across SIGTERM: %d %v %.200s", r.code, r.err, r.body)
	}
	if exit != 0 {
		t.Errorf("exit %d, want 0", exit)
	}
	if log := d.log(); !strings.Contains(log, "# TYPE aceso_serve_requests_total counter") {
		t.Errorf("stderr lacks the final metrics snapshot:\n%s", log)
	}
}

// TestIncompleteHeaderIsClosed opens a connection that never finishes
// its request header: the daemon must close it once readHeaderTimeout
// has passed, not hold it open forever.
func TestIncompleteHeaderIsClosed(t *testing.T) {
	t.Parallel()
	d := startDaemon(t)
	conn, err := net.Dial("tcp", strings.TrimPrefix(d.base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: acesod\r\n"); err != nil {
		t.Fatal(err)
	}
	const slack = 5 * time.Second
	conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + slack))
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after an unfinished header", readHeaderTimeout+slack)
	}
	if exit := d.terminate(t); exit != 0 {
		t.Errorf("exit %d, want 0", exit)
	}
}
