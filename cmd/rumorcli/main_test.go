package main

import "testing"

// A query whose name contains CREATE must not be taken for a stream
// declaration: generate pushes to the declared streams only, each tuple as
// wide as its stream.
func TestGenerateDeclaredStreams(t *testing.T) {
	const src = `CREATE STREAM CPU(pid, load);
QUERY recreate := FILTER(load > 90, CPU);`
	got := map[string]int{}
	n := generate(func(stream string, ts int64, vals ...int64) error {
		if len(vals) != 2 {
			t.Errorf("push to %s with %d values, want 2", stream, len(vals))
		}
		got[stream]++
		return nil
	}, src, 5, 100, 1)
	if n != 5 || len(got) != 1 || got["CPU"] != 5 {
		t.Fatalf("generate pushed %d tuples as %v, want 5 to CPU", n, got)
	}
}
