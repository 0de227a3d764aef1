// Command rumorcli runs a CQL script against tuple input.
//
// The script (see package cql for the grammar) declares streams and
// continuous queries. Input tuples are CSV lines of the form
//
//	stream,ts,v1,v2,...
//
// read from the file given with -events, or from stdin with "-events -".
// With "-gen n" the tool instead generates n random tuples per stream the
// script declares (uniform values in [0, -domain), as many as the stream's
// attributes), interleaved by timestamp in stream-name order.
//
// Example:
//
//	rumorcli -script monitoring.cql -gen 10000 -channels
package main

import (
	"bufio"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	rumor "repro"
	"repro/internal/cql"
	"repro/obshttp"
)

// pushFunc injects one tuple.
type pushFunc func(stream string, ts int64, vals ...int64) error

func main() {
	script := flag.String("script", "", "CQL script file (required)")
	events := flag.String("events", "", "CSV tuple file ('-' = stdin)")
	gen := flag.Int("gen", 0, "generate this many random tuples per stream instead of reading input")
	domain := flag.Int("domain", 1000, "domain for generated attribute values")
	seed := flag.Int64("seed", 1, "seed for generated input")
	channels := flag.Bool("channels", true, "enable channel-based m-rules")
	verbose := flag.Bool("v", false, "print every result tuple")
	dot := flag.Bool("dot", false, "print the optimized plan in Graphviz dot format and exit")
	metrics := flag.String("metrics", "", "HTTP address for /metrics, /trace, /debug/pprof (empty = disabled)")
	flag.Parse()

	if *script == "" {
		fmt.Fprintln(os.Stderr, "rumorcli: -script is required")
		os.Exit(2)
	}
	src, err := os.ReadFile(*script)
	if err != nil {
		fail(err)
	}
	sys := rumor.New()
	if err := sys.ExecScript(string(src)); err != nil {
		fail(err)
	}
	if *verbose {
		sys.OnResult(func(q string, ts int64, vals []int64) {
			fmt.Printf("%s @%d %v\n", q, ts, vals)
		})
	}
	if err := sys.Optimize(rumor.Options{Channels: *channels}); err != nil {
		fail(err)
	}
	if *dot {
		fmt.Print(sys.PlanDot())
		return
	}
	info := sys.PlanInfo()
	fmt.Printf("plan: %d queries, %d m-ops implementing %d operators, %d channels\n",
		info.Queries, info.MOps, info.Operators, info.Channels)

	if *metrics != "" {
		rumor.EnableMetrics(true)
		// Metrics takes the system's ingestion barrier, so a scrape is safe
		// beside the pushes.
		srv, err := obshttp.Start(*metrics, sys.Metrics)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "rumorcli: metrics on http://%s/metrics\n", srv.Addr())
	}

	start := time.Now()
	n := 0
	switch {
	case *gen > 0:
		n = generate(sys.Push, string(src), *gen, *domain, *seed)
	case *events != "":
		n = feedCSV(sys.Push, *events)
	default:
		fmt.Fprintln(os.Stderr, "rumorcli: provide -events or -gen")
		os.Exit(2)
	}
	elapsed := time.Since(start)

	fmt.Printf("processed %d events in %v (%.0f events/s), %d results\n",
		n, elapsed.Round(time.Millisecond),
		float64(n)/elapsed.Seconds(), sys.TotalResults())
}

// generate feeds random interleaved tuples to every stream the script
// declares, in name order, each tuple as wide as its stream's schema.
func generate(push pushFunc, src string, perStream, domain int, seed int64) int {
	parsed, err := cql.Parse(src)
	if err != nil {
		fail(err)
	}
	names := slices.Sorted(maps.Keys(parsed.Catalog))
	r := rand.New(rand.NewSource(seed))
	n := 0
	ts := int64(0)
	for i := 0; i < perStream; i++ {
		for _, name := range names {
			vals := make([]int64, parsed.Catalog[name].Schema.Arity())
			for j := range vals {
				vals[j] = int64(r.Intn(domain))
			}
			if err := push(name, ts, vals...); err != nil {
				fail(err)
			}
			ts++
			n++
		}
	}
	return n
}

// feedCSV pushes stream,ts,v1,v2,... lines.
func feedCSV(push pushFunc, path string) int {
	var in *os.File
	if path == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) < 2 {
			fail(fmt.Errorf("line %d: need stream,ts,...", line))
		}
		ts, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			fail(fmt.Errorf("line %d: bad timestamp: %v", line, err))
		}
		vals := make([]int64, len(parts)-2)
		for i, p := range parts[2:] {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				fail(fmt.Errorf("line %d: bad value: %v", line, err))
			}
			vals[i] = v
		}
		if err := push(strings.TrimSpace(parts[0]), ts, vals...); err != nil {
			fail(fmt.Errorf("line %d: %v", line, err))
		}
		n++
	}
	if err := sc.Err(); err != nil {
		fail(err)
	}
	return n
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rumorcli:", err)
	os.Exit(1)
}
