package fault_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"asyncmg/internal/fault/faulttest"
)

// okTransport is a loopback RoundTripper returning 200 "ok" without any
// network, so the chaos schedule is the only variable.
type okTransport struct{}

func (okTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	rec.WriteString("ok")
	return rec.Result(), nil
}

func get(t *testing.T, c *faulttest.HTTPChaos, url string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	return c.RoundTrip(req)
}

func TestHTTPChaosKillRestartPartition(t *testing.T) {
	c := faulttest.NewHTTPChaos(faulttest.HTTPConfig{}, okTransport{})

	resp, err := get(t, c, "http://n0:1/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthy node: resp %v err %v", resp, err)
	}
	resp.Body.Close()

	c.Kill("n0:1")
	if _, err := get(t, c, "http://n0:1/healthz"); err == nil {
		t.Fatal("killed node answered")
	} else if !strings.Contains(err.Error(), "killed") {
		t.Fatalf("killed node error = %v, want a kill", err)
	}
	// Other nodes are unaffected.
	if resp, err := get(t, c, "http://n1:1/healthz"); err != nil {
		t.Fatalf("sibling of killed node: %v", err)
	} else {
		resp.Body.Close()
	}

	c.Restart("n0:1")
	if resp, err := get(t, c, "http://n0:1/healthz"); err != nil {
		t.Fatalf("restarted node: %v", err)
	} else {
		resp.Body.Close()
	}

	c.Partition("n0:1", "n1:1")
	for _, h := range []string{"n0:1", "n1:1"} {
		if _, err := get(t, c, "http://"+h+"/x"); err == nil {
			t.Fatalf("partitioned node %s answered", h)
		}
	}
	c.Heal()
	if resp, err := get(t, c, "http://n0:1/x"); err != nil {
		t.Fatalf("healed node: %v", err)
	} else {
		resp.Body.Close()
	}
	st := c.Stats()
	if st.Refused != 3 {
		t.Errorf("refused = %d, want 3 (one kill + two partition probes)", st.Refused)
	}
}

// killTransport kills the target inside the round trip, modelling a node
// dying while the solve is in flight: the response must be lost.
type killTransport struct{ c *faulttest.HTTPChaos }

func (k *killTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	k.c.Kill(req.URL.Host)
	return okTransport{}.RoundTrip(req)
}

func TestHTTPChaosKillMidFlightLosesResponse(t *testing.T) {
	kt := &killTransport{}
	c := faulttest.NewHTTPChaos(faulttest.HTTPConfig{}, kt)
	kt.c = c
	if _, err := get(t, c, "http://n0:1/solve"); err == nil {
		t.Fatal("response survived a mid-flight kill")
	} else if !strings.Contains(err.Error(), "reset") {
		t.Fatalf("mid-flight kill error = %v, want a reset", err)
	}
	if st := c.Stats(); st.Resets != 1 {
		t.Errorf("resets = %d, want 1", st.Resets)
	}
}

func TestHTTPChaosDeterministicDrops(t *testing.T) {
	run := func() []bool {
		c := faulttest.NewHTTPChaos(faulttest.HTTPConfig{Seed: 7, DropRate: 0.5}, okTransport{})
		out := make([]bool, 40)
		for i := range out {
			resp, err := get(t, c, "http://n0:1/solve")
			out[i] = err == nil
			if err == nil {
				resp.Body.Close()
			}
		}
		return out
	}
	a, b := run(), run()
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop schedule diverged at request %d", i)
		}
		if !a[i] {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Errorf("drop rate 0.5 produced %d/%d drops", drops, len(a))
	}
	// A different seed must produce a different schedule.
	c2 := faulttest.NewHTTPChaos(faulttest.HTTPConfig{Seed: 8, DropRate: 0.5}, okTransport{})
	diff := false
	for i := range a {
		resp, err := get(t, c2, "http://n0:1/solve")
		if err == nil {
			resp.Body.Close()
		}
		if (err == nil) != a[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("seeds 7 and 8 produced identical drop schedules")
	}
}

func TestHTTPChaosStragglerRespectsContext(t *testing.T) {
	c := faulttest.NewHTTPChaos(faulttest.HTTPConfig{}, okTransport{})
	c.Straggle("n0:1", 10*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://n0:1/solve", nil)
	start := time.Now()
	if _, err := c.RoundTrip(req); err == nil {
		t.Fatal("straggler delay ignored context cancellation")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
	c.Straggle("n0:1", 0)
	req2, _ := http.NewRequest("GET", "http://n0:1/solve", nil)
	if resp, err := c.RoundTrip(req2); err != nil {
		t.Fatalf("cleared straggler: %v", err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
