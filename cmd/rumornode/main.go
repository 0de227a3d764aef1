// Command rumornode hosts one RUMOR shard worker.
//
// The worker is passive: it listens for the coordinator, receives the
// optimized plan in the handshake, and executes the shard the coordinator
// assigns it. Run one rumornode per shard and point the coordinator's
// DialCluster at the addresses:
//
//	rumornode -listen :7071 &
//	rumornode -listen :7072 &
//
// The process exits 0 when the coordinator shuts the cluster down
// (System.Close), and keeps its replica across coordinator
// reconnects — a dropped connection alone loses nothing. Restarting
// rumornode does lose the replica; the coordinator detects that by the
// boot-ID change and declares the shard lost (recover with RecoverShard).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	rumor "repro"
	"repro/obshttp"
)

func main() {
	listen := flag.String("listen", ":7071", "TCP address to accept the coordinator on")
	metrics := flag.String("metrics", "", "HTTP address for /metrics, /trace, /debug/pprof (empty = disabled)")
	quiet := flag.Bool("q", false, "suppress startup log line")
	flag.Parse()

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rumornode: %v\n", err)
		os.Exit(1)
	}
	worker := rumor.NewShardWorker()
	if *metrics != "" {
		rumor.EnableMetrics(true)
		srv, err := obshttp.Start(*metrics, func() (*rumor.Metrics, error) {
			return worker.Metrics(), nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rumornode: metrics listener: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "rumornode: metrics on http://%s/metrics\n", srv.Addr())
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "rumornode: serving one shard on %s\n", lis.Addr())
	}
	if err := worker.Serve(lis); err != nil {
		fmt.Fprintf(os.Stderr, "rumornode: %v\n", err)
		os.Exit(1)
	}
}
