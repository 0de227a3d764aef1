package obshttp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro"
)

// sampleSource builds a snapshot exercising every render path: plain and
// labeled scalars, and a histogram with observations in several buckets.
func sampleSource() (*rumor.Metrics, error) {
	h := &rumor.Histogram{Count: 3, Sum: 1024 + 1023 + 1}
	h.Buckets[1] = 1  // value 1
	h.Buckets[10] = 1 // value 1023
	h.Buckets[11] = 1 // value 1024
	return &rumor.Metrics{
		Counters: map[string]int64{
			"engine_tuples_delivered_total":   42,
			"shard_tuples_total{shard=\"0\"}": 21,
			"shard_tuples_total{shard=\"1\"}": 21,
		},
		Gauges: map[string]int64{
			"cluster_link_rtt_ns{shard=\"0\"}": 1500,
			"worker_boot_id":                   7,
		},
		Hists: map[string]*rumor.Histogram{"shard_flush_ns": h},
	}, nil
}

var seriesRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?\d+)$`)

// parseProm validates the text exposition format line by line and returns
// the parsed series. Every series must belong to a family announced by a
// preceding TYPE line.
func parseProm(t *testing.T, text string) map[string]int64 {
	t.Helper()
	typed := map[string]string{}
	series := map[string]int64{}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line", ln+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			if parts[3] != "counter" && parts[3] != "gauge" && parts[3] != "histogram" {
				t.Fatalf("line %d: unknown type %q", ln+1, parts[3])
			}
			if _, dup := typed[parts[2]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %q", ln+1, parts[2])
			}
			typed[parts[2]] = parts[3]
			continue
		}
		m := seriesRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed series line %q", ln+1, line)
		}
		fam := m[1]
		if typ, ok := typed[fam]; !ok {
			// histogram children: name_bucket/_sum/_count under the base TYPE
			base := fam
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if b, found := strings.CutSuffix(fam, suf); found {
					base = b
					break
				}
			}
			if typed[base] != "histogram" {
				t.Fatalf("line %d: series %q has no TYPE line", ln+1, fam)
			}
		} else if typ == "histogram" {
			t.Fatalf("line %d: bare series %q for histogram family", ln+1, fam)
		}
		v, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			t.Fatalf("line %d: value %q: %v", ln+1, m[3], err)
		}
		series[m[1]+m[2]] = v
	}
	return series
}

func TestWritePromValid(t *testing.T) {
	m, _ := sampleSource()
	var b strings.Builder
	WriteProm(&b, m)
	series := parseProm(t, b.String())

	if got := series["engine_tuples_delivered_total"]; got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if got := series[`shard_tuples_total{shard="1"}`]; got != 21 {
		t.Fatalf("labeled counter = %d, want 21", got)
	}
	if got := series[`cluster_link_rtt_ns{shard="0"}`]; got != 1500 {
		t.Fatalf("labeled gauge = %d, want 1500", got)
	}
	// Histogram: cumulative buckets, +Inf equals count.
	if got := series[`shard_flush_ns_bucket{le="1"}`]; got != 1 {
		t.Fatalf("le=1 bucket = %d, want 1", got)
	}
	if got := series[`shard_flush_ns_bucket{le="1023"}`]; got != 2 {
		t.Fatalf("le=1023 bucket = %d, want cumulative 2", got)
	}
	if got := series[`shard_flush_ns_bucket{le="+Inf"}`]; got != 3 {
		t.Fatalf("le=+Inf bucket = %d, want 3", got)
	}
	if got := series["shard_flush_ns_count"]; got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	if got := series["shard_flush_ns_sum"]; got != 2048 {
		t.Fatalf("sum = %d, want 2048", got)
	}
	// Cumulative buckets never decrease.
	prev := int64(0)
	for i := 0; ; i++ {
		bound := rumor.HistogramBucketBound(i)
		if bound < 0 {
			break
		}
		key := fmt.Sprintf(`shard_flush_ns_bucket{le="%d"}`, bound)
		if v, ok := series[key]; ok {
			if v < prev {
				t.Fatalf("bucket %s = %d decreased below %d", key, v, prev)
			}
			prev = v
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler(sampleSource))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	parseProm(t, string(body))

	resp, err = http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var events []rumor.TraceEvent
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("/trace decode: %v", err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vars, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var decoded map[string]any
	if err := json.Unmarshal(vars, &decoded); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := decoded["rumor"]; !ok {
		t.Fatalf("/debug/vars missing the rumor var")
	}
}

func TestStartBindsAndServes(t *testing.T) {
	srv, err := Start("127.0.0.1:0", sampleSource)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	parseProm(t, string(body))
}
