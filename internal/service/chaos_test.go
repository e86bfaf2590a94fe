package service

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The chaos child: when chaosDirEnv is set, the test binary is not a test
// run but a durable, fault-injected campaign server. It prints its
// address on one stdout line and serves until it is killed.
const (
	chaosDirEnv  = "RM_CHAOS_SERVER_DIR"
	chaosSeedEnv = "RM_CHAOS_SERVER_SEED"
)

func TestMain(m *testing.M) {
	if dir := os.Getenv(chaosDirEnv); dir != "" {
		os.Exit(chaosServer(dir, os.Getenv(chaosSeedEnv)))
	}
	os.Exit(m.Run())
}

// chaosServer runs the child: the durable tier checkpoints every 5 runs
// on a filesystem whose fault plan, a pure function of the seed, fails 5%
// of operations (0.4 of them I/O errors, 0.4 torn writes, 0.2 delays).
// An injected fault that stops the store from opening exits 1.
func chaosServer(dir, seed string) int {
	n, err := strconv.ParseUint(seed, 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos server seed:", err)
		return 2
	}
	const rate = 0.05
	s, err := New(Config{
		Workers:         2,
		DataDir:         dir,
		CheckpointEvery: 5,
		fs:              withFaults(newFaultPlan(n, faultConfig{PError: 0.4 * rate, PTorn: 0.4 * rate, PDelay: 0.2 * rate})),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("http://%s\n", ln.Addr())
	fmt.Fprintln(os.Stderr, http.Serve(ln, s.Handler()))
	return 1
}

// chaosChild is one running child server process.
type chaosChild struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
}

// startChaosChild re-executes the test binary as a chaos server on dir
// and waits for its address. It returns nil when the child exits before
// it listens (an injected fault stopped the store from opening).
func startChaosChild(t *testing.T, dir string, seed uint64) *chaosChild {
	t.Helper()
	c := &chaosChild{cmd: exec.Command(os.Args[0])}
	c.cmd.Env = append(os.Environ(), chaosDirEnv+"="+dir, chaosSeedEnv+"="+strconv.FormatUint(seed, 10))
	c.cmd.Stderr = &c.stderr
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.kill)
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		c.kill()
		t.Logf("chaos server (seed %d) exited before listening: %s", seed, c.stderr.String())
		return nil
	}
	c.base = strings.TrimSpace(line)
	return c
}

// kill SIGKILLs the child (no drain, no cleanup: a crash) and reaps it.
func (c *chaosChild) kill() {
	if c.cmd.ProcessState == nil {
		_ = c.cmd.Process.Kill()
		_ = c.cmd.Wait()
	}
}

// metricOf scrapes one unlabelled series from base's /metrics (0 when
// absent).
func metricOf(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	return 0
}

// TestChaosKillResume is the kill-resume scenario of the durable tier:
//
//  1. A clean, memory-only server runs the reference campaign.
//  2. A child process serves with the durable tier and a seeded storage
//     fault plan (the first of seeds 1..16 whose faults let it start), is
//     submitted the same campaign and is SIGKILLed once a checkpoint
//     write has landed.
//  3. A new child on the same data dir and seed finishes the campaign,
//     resuming from the checkpoint (or recomputing, if injected faults
//     corrupted it: corruption may cost work, never correctness).
//  4. The durable tier must have engaged after the restart, and the
//     result must be bit-identical to the reference.
func TestChaosKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary as a server; long campaign")
	}
	// Long enough that the kill lands mid-flight, with the pWCET analysis
	// so the comparison covers the statistics pipeline.
	const body = `{"workload":"synth160k","placement":"RM","runs":160,"seed":53,"analyze":true}`

	_, ref := testServer(t, Config{})
	refSub, _ := postCampaign(t, ref.URL, body)
	want := waitDone(t, ref.URL, refSub.ID)
	if want.State != "done" || want.Result == nil {
		t.Fatalf("reference run state=%s error=%q", want.State, want.Error)
	}

	dir := t.TempDir()
	var child *chaosChild
	var seed uint64
	for seed = 1; seed <= 16; seed++ {
		if child = startChaosChild(t, dir, seed); child != nil {
			break
		}
	}
	if child == nil {
		t.Fatal("no fault seed in 1..16 let the chaos server start")
	}

	if _, code := postCampaign(t, child.base, body); code != http.StatusAccepted {
		t.Fatalf("submit -> %d", code)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for metricOf(t, child.base, "rm_checkpoint_writes_total") < 1 {
		if time.Now().After(deadline) {
			child.kill()
			t.Fatalf("no checkpoint write landed in time; child stderr:\n%s", child.stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	child.kill()

	child = startChaosChild(t, dir, seed)
	if child == nil {
		t.Fatal("the chaos server did not restart on its data dir")
	}
	// Coalesces with the startup scan's resubmission by fingerprint.
	sub, _ := postCampaign(t, child.base, body)
	got := waitDone(t, child.base, sub.ID)
	if got.State != "done" || got.Result == nil {
		t.Fatalf("post-crash campaign state=%s error=%q", got.State, got.Error)
	}

	resumes := metricOf(t, child.base, "rm_checkpoint_resumes_total")
	corruptions := metricOf(t, child.base, "rm_checkpoint_corruptions_total")
	hits := metricOf(t, child.base, "rm_store_disk_hits_total")
	t.Logf("fault seed %d; after restart: resumes=%v corruptions=%v disk hits=%v", seed, resumes, corruptions, hits)
	if resumes+corruptions+hits == 0 {
		t.Fatal("the durable tier never engaged after the crash")
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Fatalf("post-crash result differs from the clean run:\nclean: %+v\ncrash: %+v", want.Result, got.Result)
	}
}
