// lifecycle_test.go pins the dataset lifecycle: DELETE (including
// canceling an in-flight warm), LRU eviction under MaxDatasets, TTL
// eviction by the janitor, the copy-on-write guarantee that eviction
// never breaks an in-flight query, and the shutdown drain budget
// hard-canceling a warm stream.

package meshd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// gateReader forwards to a real file but blocks every Read until
// release closes, signalling start on the first Read — the hook that
// parks a warm mid-stream so tests can race it deterministically.
type gateReader struct {
	f       io.ReadSeekCloser
	start   func()
	release <-chan struct{}
}

func (g *gateReader) Read(p []byte) (int, error) {
	g.start()
	<-g.release
	return g.f.Read(p)
}
func (g *gateReader) Seek(off int64, whence int) (int64, error) { return g.f.Seek(off, whence) }
func (g *gateReader) Close() error                              { return g.f.Close() }

// gatedOpen builds an Open hook whose readers block on release and
// close started on the first Read of the first reader.
func gatedOpen(started chan struct{}, release <-chan struct{}) func(string) (io.ReadSeekCloser, error) {
	var once sync.Once
	return func(p string) (io.ReadSeekCloser, error) {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		return &gateReader{
			f:       f,
			start:   func() { once.Do(func() { close(started) }) },
			release: release,
		}, nil
	}
}

// TestMeshdDeleteCancelsInFlightWarm: deleting a dataset mid-warm must
// cancel the warm's stream (it exits without publishing), leave the
// name unknown, and let a fresh registration under the same name warm
// normally.
func TestMeshdDeleteCancelsInFlightWarm(t *testing.T) {
	dir, path := synthTiny(t)
	started := make(chan struct{})
	release := make(chan struct{})
	s := New(Config{Dir: dir, Open: gatedOpen(started, release)})
	defer s.Shutdown(context.Background())
	if err := s.RegisterPath("stuck", path); err != nil {
		t.Fatal(err)
	}
	<-started // the warm is mid-Read
	if err := s.Delete("stuck"); err != nil {
		t.Fatalf("Delete during warm: %v", err)
	}
	close(release) // unblock the read; the canceled context stops the stream
	if _, err := s.Snapshot("stuck"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted dataset still resolves: %v", err)
	}
	if err := s.Delete("stuck"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete: %v, want ErrNotFound", err)
	}
	// The detached warm exits: a bounded Shutdown drains cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("canceled warm never exited: %v", err)
	}
}

// TestMeshdDeleteThenReregister: after deleting a warming dataset the
// name is free — a fresh registration warms to ready.
func TestMeshdDeleteThenReregister(t *testing.T) {
	dir, path := synthTiny(t)
	started := make(chan struct{})
	release := make(chan struct{})
	s := New(Config{Dir: dir, Open: gatedOpen(started, release)})
	defer s.Shutdown(context.Background())
	if err := s.RegisterPath("ds", path); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.Delete("ds"); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := s.RegisterPath("ds", path); err != nil {
		t.Fatalf("re-register after delete: %v", err)
	}
	waitReady(t, s, "ds")
}

// TestMeshdDeleteHTTP pins the endpoint: 204 on delete, 404 after.
func TestMeshdDeleteHTTP(t *testing.T) {
	s, _ := newWarmServer(t, "tiny")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	del := func() int {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/tiny", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(); code != http.StatusNoContent {
		t.Fatalf("DELETE = %d, want 204", code)
	}
	resp, err := http.Get(ts.URL + "/v1/datasets/tiny")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status after delete = %d, want 404", resp.StatusCode)
	}
	if code := del(); code != http.StatusNotFound {
		t.Fatalf("second DELETE = %d, want 404", code)
	}
}

// TestMeshdLRUEviction: a registration pushing past MaxDatasets evicts
// the least-recently-queried ready dataset, never the fresher one.
func TestMeshdLRUEviction(t *testing.T) {
	dir, path := synthTiny(t)
	s := New(Config{Dir: dir, MaxDatasets: 2})
	defer s.Shutdown(context.Background())
	for _, name := range []string{"aa", "bb"} {
		if err := s.RegisterPath(name, path); err != nil {
			t.Fatal(err)
		}
		waitReady(t, s, name)
	}
	time.Sleep(2 * time.Millisecond) // separate the last-used stamps
	if _, err := s.Snapshot("aa"); err != nil {
		t.Fatal(err) // touch aa: bb is now the LRU
	}
	if err := s.RegisterPath("cc", path); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Status("bb"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LRU dataset bb not evicted: %v", err)
	}
	if _, err := s.Status("aa"); err != nil {
		t.Fatalf("recently-used aa evicted: %v", err)
	}
	waitReady(t, s, "cc")
}

// TestMeshdTTLEviction: the janitor evicts a ready dataset whose
// snapshot goes unqueried past DatasetTTL.
func TestMeshdTTLEviction(t *testing.T) {
	dir, path := synthTiny(t)
	s := New(Config{Dir: dir, DatasetTTL: 50 * time.Millisecond})
	defer s.Shutdown(context.Background())
	if err := s.RegisterPath("idle", path); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "idle")
	// Poll through Status — unlike Snapshot it does not refresh the
	// last-used stamp, so the dataset genuinely idles.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := s.Status("idle"); errors.Is(err, ErrNotFound) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("idle dataset never evicted by TTL")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMeshdShutdownJoinsJanitor: Shutdown joins every goroutine the
// server started — with a TTL that includes the eviction janitor, which
// must have signaled its exit the moment Shutdown returns. A janitor
// still inside its final WaitGroup.Done has been joined and is only
// unwinding; any other janitor frame is one Shutdown did not wait for.
// An unjoined janitor exits a moment later on its own, so the first
// check (a warmed quick scenario) is repeated over many bare
// New/Shutdown cycles to catch that window.
func TestMeshdShutdownJoinsJanitor(t *testing.T) {
	buf := make([]byte, 1<<20)
	janitorGone := func(what string) {
		t.Helper()
		stacks := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(stacks, "\n\n") {
			if strings.Contains(g, "meshd.(*Server).janitor") && !strings.Contains(g, "sync.(*WaitGroup).Done") {
				t.Fatalf("%s: janitor still running after Shutdown returned:\n%s", what, g)
			}
		}
	}
	base := runtime.NumGoroutine()
	s := New(Config{Dir: t.TempDir(), DatasetTTL: time.Hour})
	if _, err := s.RegisterScenario("quick", "quick"); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "quick")
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	janitorGone("a warmed server")
	for i := 0; i < 300; i++ {
		if err := New(Config{DatasetTTL: time.Hour}).Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		janitorGone(fmt.Sprintf("bare cycle %d", i))
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("Shutdown leaked goroutines: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMeshdEvictIdleSkipsWarming: eviction never touches a dataset
// whose warm is in flight, no matter how stale its last-used stamp.
func TestMeshdEvictIdleSkipsWarming(t *testing.T) {
	dir, path := synthTiny(t)
	started := make(chan struct{})
	release := make(chan struct{})
	s := New(Config{Dir: dir, DatasetTTL: time.Hour, Open: gatedOpen(started, release)})
	defer s.Shutdown(context.Background())
	if err := s.RegisterPath("warming", path); err != nil {
		t.Fatal(err)
	}
	<-started
	if n := s.evictIdle(time.Now().Add(2 * time.Hour)); n != 0 {
		t.Fatalf("evicted %d datasets while one was warming, want 0", n)
	}
	close(release)
	waitReady(t, s, "warming")
	if n := s.evictIdle(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("evicted %d ready-and-idle datasets, want 1", n)
	}
	if _, err := s.Status("warming"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dataset survived eviction: %v", err)
	}
}

// TestMeshdEvictionMidQueryCOW: a snapshot resolved before DELETE keeps
// serving every byte after it — the copy-on-write contract.
func TestMeshdEvictionMidQueryCOW(t *testing.T) {
	s, snap := newWarmServer(t, "tiny")
	report, sec4 := snap.Report(), snap.Sec4()
	if report == "" || sec4 == "" {
		t.Fatal("empty pre-delete responses")
	}
	if err := s.Delete("tiny"); err != nil {
		t.Fatal(err)
	}
	if snap.Report() != report || snap.Sec4() != sec4 {
		t.Fatal("snapshot bytes changed after delete")
	}
	for _, id := range snap.ids {
		if _, err := snap.Experiment(id); err != nil {
			t.Fatalf("experiment %s broken after delete: %v", id, err)
		}
	}
	if _, err := s.Snapshot("tiny"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("registry still resolves the deleted name: %v", err)
	}
}

// TestMeshdDeleteVsQueryRace hammers GET /report while another
// goroutine loops DELETE + re-register: every response must be a
// complete 200 (bytes matching the dataset, up to run lines), a 404, or
// a 503 — never a torn body or a 500. Run under -race in CI.
func TestMeshdDeleteVsQueryRace(t *testing.T) {
	dir, path := synthTiny(t)
	s := New(Config{Dir: dir})
	defer s.Shutdown(context.Background())
	if err := s.RegisterPath("tiny", path); err != nil {
		t.Fatal(err)
	}
	want := stripRunLines(waitReady(t, s, "tiny").Report())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			s.Delete("tiny")
			if err := s.RegisterPath("tiny", path); err != nil {
				t.Errorf("re-register %d: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/datasets/tiny/report")
				if err != nil {
					t.Errorf("GET: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("read body: %v", err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					if stripRunLines(string(body)) != want {
						t.Error("200 served torn or foreign report bytes")
						return
					}
				case http.StatusNotFound, http.StatusServiceUnavailable:
					// deleted, or mid-warm — both legal mid-race
				default:
					t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitReady(t, s, "tiny")
}

// TestMeshdShutdownDrainBudgetCancelsWarm: when the drain budget
// expires mid-warm, Shutdown returns the context error promptly and the
// hard-cancel reaches the warm's stream — it fails as canceled instead
// of streaming on.
func TestMeshdShutdownDrainBudgetCancelsWarm(t *testing.T) {
	dir, path := synthTiny(t)
	// Trickle reads keep the warm alive far longer than the drain
	// budget without ever blocking it outright.
	open := func(p string) (io.ReadSeekCloser, error) {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		return &trickleReader{f: f}, nil
	}
	s := New(Config{Dir: dir, Open: open})
	if err := s.RegisterPath("slow", path); err != nil {
		t.Fatal(err)
	}
	// Wait for the warm to be mid-stream.
	deadline := time.Now().Add(time.Minute)
	for {
		st, err := s.Status("slow")
		if err != nil {
			t.Fatal(err)
		}
		if st.Attempt >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("warm never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Shutdown took %v despite a 20ms budget", took)
	}
	// The hard-cancel reaches the stream: the warm fails as canceled.
	deadline = time.Now().Add(30 * time.Second)
	for {
		st, err := s.Status("slow")
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateFailed {
			if !strings.Contains(st.Error, "canceled") {
				t.Fatalf("canceled warm's error: %q", st.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("warm never observed the hard-cancel (state %s)", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// trickleReader serves at most 256 bytes per Read with a 2ms pause —
// a stream slow enough to outlive any test drain budget, yet cancelable
// between reads.
type trickleReader struct{ f io.ReadSeekCloser }

func (r *trickleReader) Read(p []byte) (int, error) {
	time.Sleep(2 * time.Millisecond)
	if len(p) > 256 {
		p = p[:256]
	}
	return r.f.Read(p)
}
func (r *trickleReader) Seek(off int64, whence int) (int64, error) { return r.f.Seek(off, whence) }
func (r *trickleReader) Close() error                              { return r.f.Close() }

// TestMeshdDeleteUnknown pins the error shape.
func TestMeshdDeleteUnknown(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	err := s.Delete("ghost")
	if !errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("Delete(ghost) = %v", err)
	}
}
