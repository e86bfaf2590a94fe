package service

import (
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestDiskStoreRoundtrip: blobs come back byte-identical through the
// envelope, checkpoints list and delete, and the counters add up.
func TestDiskStoreRoundtrip(t *testing.T) {
	d, err := openDiskStore(osFS{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.GetResult("fp1"); ok {
		t.Fatal("hit on an empty store")
	}
	payload := []byte(`{"answer":42}`)
	if err := d.PutResult("fp1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := d.GetResult("fp1")
	if !ok || string(got) != string(payload) {
		t.Fatalf("read back %q, %v", got, ok)
	}
	if err := d.PutCheckpoint("fp2", []byte("ck")); err != nil {
		t.Fatal(err)
	}
	if cps := d.Checkpoints(); len(cps) != 1 || cps[0] != "fp2" {
		t.Fatalf("checkpoints = %v", cps)
	}
	d.DeleteCheckpoint("fp2")
	if cps := d.Checkpoints(); len(cps) != 0 {
		t.Fatalf("checkpoints after delete = %v", cps)
	}
	st := d.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 2 || st.Quarantines != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDiskStoreQuarantinesCorruptBlobs: a blob damaged on disk (torn
// tail, flipped byte, wrong magic) reads as a miss, is moved to the
// quarantine directory, and the slot accepts a rewrite.
func TestDiskStoreQuarantinesCorruptBlobs(t *testing.T) {
	root := t.TempDir()
	d, err := openDiskStore(osFS{}, root)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		p := filepath.Join(root, diskResultsDir, name+diskResultExt)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, mutate(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		fp     string
		mutate func([]byte) []byte
	}{
		{"torn", func(b []byte) []byte { return b[:len(b)/2] }},
		{"flip", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }},
		{"magic", func(b []byte) []byte { b[0] = 'X'; return b }},
	}
	for _, c := range cases {
		if err := d.PutResult(c.fp, []byte("payload-"+c.fp)); err != nil {
			t.Fatal(err)
		}
		corrupt(c.fp, c.mutate)
		if _, ok := d.GetResult(c.fp); ok {
			t.Fatalf("%s: corrupt blob served", c.fp)
		}
	}
	if q := d.Stats().Quarantines; q != 3 {
		t.Fatalf("quarantines = %d, want 3", q)
	}
	ents, err := os.ReadDir(filepath.Join(root, diskQuarantineDir))
	if err != nil || len(ents) != 3 {
		t.Fatalf("quarantine dir has %d entries (%v), want 3", len(ents), err)
	}
	// The slot is free again: a rewrite serves.
	if err := d.PutResult("torn", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.GetResult("torn"); !ok || string(got) != "fresh" {
		t.Fatalf("rewrite after quarantine: %q, %v", got, ok)
	}
}

// TestDiskStoreTornTempWriteInvisible: a torn write that dies on the temp
// file never becomes visible — the rename only happens after a complete,
// durable write, so readers see the old state (here: nothing).
func TestDiskStoreTornTempWriteInvisible(t *testing.T) {
	fsys := withFaults(newFaultPlan(7, faultConfig{PTorn: 1}))
	root := t.TempDir()
	clean, err := openDiskStore(osFS{}, root)
	if err != nil {
		t.Fatal(err)
	}
	faulty := &DiskStore{fs: fsys, root: root}
	if err := faulty.PutCheckpoint("fp", []byte("state")); err == nil {
		t.Fatal("torn write reported success")
	}
	if _, ok := clean.GetCheckpoint("fp"); ok {
		t.Fatal("torn temp write became visible")
	}
	if st := faulty.Stats(); st.WriteErrors != 1 {
		t.Fatalf("write errors = %d, want 1", st.WriteErrors)
	}
}

// diskBody is the campaign the durable-tier tests run: big enough to
// span several checkpoints, small enough to finish quickly.
const diskBody = `{"workload":"tblook01","placement":"RM","runs":400,"seed":41,"analyze":true}`

// TestDiskResultServesAcrossRestart: a completed campaign persists, and a
// fresh server on the same data dir answers the same submission from
// disk — no execution, same result, wire-identical times.
func TestDiskResultServesAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	a, tsA := testServer(t, Config{DataDir: dir})
	sub, code := postCampaign(t, tsA.URL, diskBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit -> %d", code)
	}
	want := waitDone(t, tsA.URL, sub.ID)
	if want.State != "done" {
		t.Fatalf("first run state=%s error=%q", want.State, want.Error)
	}
	if w := a.disk.Stats().Writes; w == 0 {
		t.Fatal("no durable writes for a completed campaign")
	}
	tsA.Close()
	a.Close()

	b, tsB := testServer(t, Config{DataDir: dir})
	resub, code := postCampaign(t, tsB.URL, diskBody)
	if code != http.StatusOK || !resub.Cached {
		t.Fatalf("restart resubmit: code=%d cached=%v, want 200 cached", code, resub.Cached)
	}
	got := waitDone(t, tsB.URL, resub.ID)
	if got.State != "done" || got.Result == nil {
		t.Fatalf("disk-served job state=%s", got.State)
	}
	if len(got.Result.Times) != len(want.Result.Times) {
		t.Fatalf("times length %d vs %d", len(got.Result.Times), len(want.Result.Times))
	}
	for i := range want.Result.Times {
		if got.Result.Times[i] != want.Result.Times[i] {
			t.Fatalf("Times[%d]: %v vs %v", i, got.Result.Times[i], want.Result.Times[i])
		}
	}
	if got.Result.Analysis == nil || *got.Result.Analysis != *want.Result.Analysis {
		t.Fatalf("analysis differs across restart: %+v vs %+v", got.Result.Analysis, want.Result.Analysis)
	}
	if got.Snapshot == nil || got.Snapshot.Runs != want.Snapshot.Runs {
		t.Fatalf("snapshot lost across restart: %+v", got.Snapshot)
	}
	if h := b.disk.Stats().Hits; h == 0 {
		t.Fatal("restart submission did not hit the disk store")
	}
	if b.ckptResumes.Load() != 0 {
		t.Fatal("completed campaign counted as a resume")
	}
}

// TestCrashResumeBitIdentical is the service-level acceptance check of
// the durability tentpole: a server killed mid-campaign (Close cancels
// in-flight jobs, exactly like a SIGTERM) leaves a checkpoint behind; a
// fresh server on the same data dir resumes the campaign on startup and
// its final times vector is bit-identical to an uninterrupted run.
func TestCrashResumeBitIdentical(t *testing.T) {
	const body = `{"workload":"synth160k","placement":"RM","runs":160,"seed":53}`

	// Reference: an uninterrupted run on a memory-only server.
	_, tsRef := testServer(t, Config{})
	refSub, _ := postCampaign(t, tsRef.URL, body)
	ref := waitDone(t, tsRef.URL, refSub.ID)
	if ref.State != "done" {
		t.Fatalf("reference run state=%s error=%q", ref.State, ref.Error)
	}

	dir := t.TempDir()
	a, tsA := testServer(t, Config{DataDir: dir, CheckpointEvery: 10, Workers: 2})
	if _, code := postCampaign(t, tsA.URL, body); code != http.StatusAccepted {
		t.Fatalf("submit -> %d", code)
	}
	// Wait for the campaign to make durable progress, then kill the
	// server mid-flight.
	deadline := time.Now().Add(2 * time.Minute)
	for a.ckptWrites.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint written in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
	tsA.Close()
	a.Close()

	cps := mustDisk(t, dir).Checkpoints()
	if len(cps) != 1 {
		t.Skipf("campaign finished before the kill (checkpoints=%v); nothing to resume", cps)
	}

	// The restarted server resumes the campaign by itself.
	b, tsB := testServer(t, Config{DataDir: dir, CheckpointEvery: 10, Workers: 2})
	if b.ckptResumes.Load() == 0 {
		t.Fatal("restart did not resume from the checkpoint")
	}
	resub, _ := postCampaign(t, tsB.URL, body) // coalesces onto the resumed job
	got := waitDone(t, tsB.URL, resub.ID)
	if got.State != "done" || got.Result == nil {
		t.Fatalf("resumed campaign state=%s error=%q", got.State, got.Error)
	}
	if len(got.Result.Times) != len(ref.Result.Times) {
		t.Fatalf("times length %d vs %d", len(got.Result.Times), len(ref.Result.Times))
	}
	for i := range ref.Result.Times {
		if got.Result.Times[i] != ref.Result.Times[i] {
			t.Fatalf("resumed Times[%d] = %v, clean run %v", i, got.Result.Times[i], ref.Result.Times[i])
		}
	}
	if got.Result.HWM != ref.Result.HWM || got.Result.Mean != ref.Result.Mean {
		t.Fatalf("resumed aggregates (%v, %v) differ from clean (%v, %v)",
			got.Result.HWM, got.Result.Mean, ref.Result.HWM, ref.Result.Mean)
	}
	// The completed campaign retired its checkpoint and persisted its
	// result.
	if cps := b.disk.Checkpoints(); len(cps) != 0 {
		t.Fatalf("checkpoints not retired after completion: %v", cps)
	}
	if _, ok := b.disk.GetResult(resub.Fingerprint); !ok {
		t.Fatal("resumed campaign's result not persisted")
	}
}

// mustDisk opens a read-only view of a data dir for assertions.
func mustDisk(t *testing.T, dir string) *DiskStore {
	t.Helper()
	d, err := openDiskStore(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCorruptDiskEntriesRecompute: damaged durable state (a corrupt
// result blob, a checkpoint whose payload fails the core codec) is
// quarantined and the campaign recomputes from scratch — corruption
// costs work, never correctness.
func TestCorruptDiskEntriesRecompute(t *testing.T) {
	dir := t.TempDir()
	a, tsA := testServer(t, Config{DataDir: dir})
	sub, _ := postCampaign(t, tsA.URL, diskBody)
	want := waitDone(t, tsA.URL, sub.ID)
	tsA.Close()
	a.Close()

	// Flip a payload byte past the envelope header: the SHA-256 check
	// must reject the blob.
	p := filepath.Join(dir, diskResultsDir, sub.Fingerprint+diskResultExt)
	blob, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-2] ^= 0x01
	if err := os.WriteFile(p, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	b, tsB := testServer(t, Config{DataDir: dir})
	resub, code := postCampaign(t, tsB.URL, diskBody)
	if code != http.StatusAccepted || resub.Cached {
		t.Fatalf("corrupt-result resubmit: code=%d cached=%v, want 202 fresh", code, resub.Cached)
	}
	got := waitDone(t, tsB.URL, resub.ID)
	if got.State != "done" {
		t.Fatalf("recompute state=%s error=%q", got.State, got.Error)
	}
	for i := range want.Result.Times {
		if got.Result.Times[i] != want.Result.Times[i] {
			t.Fatalf("recomputed Times[%d] differs", i)
		}
	}
	if q := b.disk.Stats().Quarantines; q == 0 {
		t.Fatal("corrupt result was not quarantined")
	}
	// The recomputation re-persisted a good blob.
	if _, ok := b.disk.GetResult(sub.Fingerprint); !ok {
		t.Fatal("recomputed result not re-persisted")
	}

	// A checkpoint that is a valid envelope around garbage is quarantined
	// on submit (json/codec failure), and the campaign still runs.
	tsB.Close()
	b.Close()
	d := mustDisk(t, dir)
	if err := d.PutCheckpoint("feedfacefeedfacefeedfacefeedface", []byte("not json")); err != nil {
		t.Fatal(err)
	}
	c, tsC := testServer(t, Config{DataDir: dir})
	defer func() { tsC.Close() }()
	pollDeadline := time.Now().Add(10 * time.Second)
	for len(c.disk.Checkpoints()) != 0 {
		if time.Now().After(pollDeadline) {
			t.Fatal("garbage checkpoint not quarantined on startup")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.ckptCorruptions.Load() == 0 {
		t.Fatal("corruption counter did not move")
	}
}

// TestServiceSurvivesInjectedFaults: with storage faults injected under
// the durable tier (I/O errors, torn writes, delays), campaigns still
// complete with correct results — durability degrades, answers do not.
func TestServiceSurvivesInjectedFaults(t *testing.T) {
	_, tsRef := testServer(t, Config{})
	refSub, _ := postCampaign(t, tsRef.URL, diskBody)
	ref := waitDone(t, tsRef.URL, refSub.ID)

	cfg := faultConfig{PError: 0.15, PTorn: 0.15, PDelay: 0.05, Delay: time.Millisecond}
	// The plan is deterministic per seed; pick the first seed whose early
	// draws let the store open (MkdirAll runs before any fault matters).
	var s *Server
	var ts *httptest.Server
	for seed := uint64(1); seed < 32; seed++ {
		srv, err := New(Config{Workers: 2, DataDir: t.TempDir(), CheckpointEvery: 10, fs: withFaults(newFaultPlan(seed, cfg))})
		if err == nil {
			s = srv
			ts = httptest.NewServer(srv.Handler())
			t.Cleanup(func() { ts.Close(); srv.Close() })
			break
		}
	}
	if s == nil {
		t.Fatal("no seed let the store open; fault config too hot")
	}

	for i := 0; i < 3; i++ {
		sub, code := postCampaign(t, ts.URL, diskBody)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submission %d -> %d", i, code)
		}
		got := waitDone(t, ts.URL, sub.ID)
		if got.State != "done" || got.Result == nil {
			t.Fatalf("faulted campaign %d state=%s error=%q", i, got.State, got.Error)
		}
		if got.Result.HWM != ref.Result.HWM || got.Result.Mean != ref.Result.Mean {
			t.Fatalf("faulted campaign %d wrong aggregates", i)
		}
	}
}

// panickyWrites is a store filesystem that opens cleanly but panics on
// every write, counting the panics.
type panickyWrites struct {
	osFS
	panics atomic.Uint64
}

func (p *panickyWrites) WriteFile(name string, _ []byte, _ fs.FileMode) error {
	p.panics.Add(1)
	panic("injected panic: write " + name)
}

// TestPersistencePanicsContained: panics in the persistence paths (the
// checkpoint writer and persistOutcome) are recovered and counted as
// failed writes. Campaigns still finish with the clean run's result.
func TestPersistencePanicsContained(t *testing.T) {
	bodies := []string{diskBody, `{"workload":"puwmod01","placement":"hRP","runs":120,"seed":5}`}
	_, tsRef := testServer(t, Config{})
	fsys := &panickyWrites{}
	_, ts := testServer(t, Config{DataDir: t.TempDir(), CheckpointEvery: 10, fs: fsys})
	for _, body := range bodies {
		refSub, _ := postCampaign(t, tsRef.URL, body)
		want := waitDone(t, tsRef.URL, refSub.ID)
		sub, code := postCampaign(t, ts.URL, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit -> %d", code)
		}
		got := waitDone(t, ts.URL, sub.ID)
		if got.State != "done" || got.Result == nil {
			t.Fatalf("campaign state=%s error=%q", got.State, got.Error)
		}
		if !reflect.DeepEqual(got.Result, want.Result) {
			t.Fatalf("result under write panics differs from the clean run:\n%+v\n%+v", got.Result, want.Result)
		}
	}
	// Every write panicked: at least one checkpoint and one result each.
	panics := fsys.panics.Load()
	if panics < uint64(2*len(bodies)) {
		t.Fatalf("%d write panics, want at least %d", panics, 2*len(bodies))
	}
	if got := metricOf(t, ts.URL, "rm_store_disk_write_errors_total"); got != float64(panics) {
		t.Fatalf("rm_store_disk_write_errors_total = %v, want the %d panics", got, panics)
	}
}

// TestQueueFullRetryAfter: the 429 response carries a Retry-After hint,
// the typed backoff signal the resilient client consumes.
func TestQueueFullRetryAfter(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1, QueueDepth: 1, Workers: 1})
	saw := false
	for i := 0; i < 8; i++ {
		body := fmt.Sprintf(`{"workload":"tblook01","placement":"RM","runs":300,"seed":%d}`, 300+i)
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if ra := resp.Header.Get("Retry-After"); ra != "1" {
				t.Fatalf("429 Retry-After = %q, want \"1\"", ra)
			}
			saw = true
			break
		}
	}
	if !saw {
		t.Skip("queue never filled on this host; timing dependent")
	}
}

// TestEventStreamDisconnectNoLeak: clients that vanish mid-NDJSON-stream
// must not leave handler goroutines (or subscriptions) behind.
func TestEventStreamDisconnectNoLeak(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1, Workers: 1})
	sub, code := postCampaign(t, ts.URL, `{"workload":"tblook01","placement":"RM","runs":100000,"seed":61}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit -> %d", code)
	}
	base := runtime.NumGoroutine()

	client := &http.Client{}
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/campaigns/"+sub.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		// Read a little so the stream is demonstrably live, then vanish.
		buf := make([]byte, 256)
		_, _ = resp.Body.Read(buf)
		cancel()
		resp.Body.Close()
	}
	client.CloseIdleConnections()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+4 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: base=%d now=%d; stream handlers leaked", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
