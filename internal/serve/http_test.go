package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPEndToEnd drives the whole HTTP surface: a prefix request, the
// degrade admin knob making sort 503, /healthz, and a /metrics scrape that
// must expose the latency quantiles and batch-occupancy series.
func TestHTTPEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{Orders: []int{2}, MaxBatch: 4, Window: time.Millisecond})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	in := make([]int64, 8)
	var want int64
	for i := range in {
		in[i] = int64(i + 1)
	}
	resp := postJSON(t, ts.URL+"/v1/prefix", &Request{N: 2, Data: in})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prefix status %d", resp.StatusCode)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for i, v := range in {
		want += v
		if out.Data[i] != want {
			t.Fatalf("prefix[%d] = %d, want %d", i, out.Data[i], want)
		}
	}

	// Malformed payload → 400.
	resp = postJSON(t, ts.URL+"/v1/prefix", &Request{N: 2, Data: in[:3]})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short payload status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown op in the path → 404.
	resp = postJSON(t, ts.URL+"/v1/scan", &Request{N: 2, Data: in})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown op status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// Degrade the only shard: sort must 503, /healthz stays ok (the shard
	// is degraded, not down).
	resp = postJSON(t, ts.URL+"/admin/shard?n=2&shard=0&action=degrade&faults=1&seed=7", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degrade status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/sort", &Request{N: 2, Data: in})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sort on degraded pool status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d with a degraded (not down) shard", hz.StatusCode)
	}
	hz.Body.Close()

	// Down the shard: /healthz must flip.
	resp = postJSON(t, ts.URL+"/admin/shard?n=2&shard=0&action=down", nil)
	resp.Body.Close()
	hz, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d with every shard down, want 503", hz.StatusCode)
	}
	hz.Body.Close()
	resp = postJSON(t, ts.URL+"/admin/shard?n=2&shard=0&action=restore", nil)
	resp.Body.Close()

	// Metrics scrape: the serving histograms must be present.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mr.Body)
	mr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	for _, series := range []string{
		`dcserve_requests_total{op="prefix"}`,
		`dcserve_latency_us_quantile{op="prefix",q="0.5"}`,
		`dcserve_latency_us_quantile{op="prefix",q="0.99"}`,
		`dcserve_batch_occupancy_bucket{op="prefix",le="+Inf"}`,
		`dcserve_queue_depth{op="prefix",n="2"}`,
		`dcserve_shard_state{n="2",shard="0"}`,
	} {
		if !strings.Contains(page, series) {
			t.Errorf("metrics page missing %s", series)
		}
	}
}
