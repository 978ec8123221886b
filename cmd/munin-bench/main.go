// Command munin-bench regenerates the paper's figures, tables and
// quantitative claims (README.md, "Experiments:", is the experiment index).
//
// Usage:
//
//	munin-bench [-nodes N] [-exp F1|T1|E1..E14|E16|E17|all]
//
// The tables are for reading. The figures in them that repeat from run
// to run are asserted exactly by `go test ./internal/bench/`; wall-clock
// performance is measured by benchmark/.
//
// # Multi-process mode
//
// With -peers (or -topology), munin-bench runs ONE member of a real
// two-process cluster instead of simulating everything in-process —
// node 0 is the home/server, any other node is the E11 flush writer:
//
//	# terminal 1 — the home
//	munin-bench -node 0 -peers "0=127.0.0.1:7000,1=127.0.0.1:7001"
//	# terminal 2 — the writer (flushes K dirty objects, prints metrics)
//	munin-bench -node 1 -peers "0=127.0.0.1:7000,1=127.0.0.1:7001" -mesh-k 64
//
// -listen overrides this node's own bind address (handy for 0.0.0.0
// binds behind NAT), -topology loads the same map from a JSON file
// ({"self": 0, "peers": {"0": "host:port", ...}}), and -mesh-serial
// makes the writer flush after every write instead of once — the serial
// baseline, for comparison. Experiment E12 automates exactly this
// pairing over 127.0.0.1.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"munin/internal/bench"
	"munin/internal/msg"
	"munin/internal/transport"
)

// meshMain runs one member of a multi-process cluster (see the package
// comment). Node 0 serves as the home; any other node runs the flush
// writer workload and prints its measurements.
func meshMain(topoPath, peersSpec, listen string, node, k int, serial bool) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "munin-bench: %v\n", err)
		os.Exit(1)
	}
	var topo transport.Topology
	var err error
	switch {
	case topoPath != "":
		topo, err = transport.LoadTopology(topoPath)
		if err == nil && node >= 0 {
			topo.Self = msg.NodeID(node)
		}
	case peersSpec != "":
		if node < 0 {
			fail(fmt.Errorf("-peers requires -node"))
		}
		topo, err = transport.ParsePeers(peersSpec, msg.NodeID(node))
	}
	if err != nil {
		fail(err)
	}
	if listen != "" {
		topo.Peers[topo.Self] = listen
	}
	if err := topo.Validate(); err != nil {
		fail(err)
	}
	if topo.Self == 0 {
		fmt.Printf("home: node 0 listening on %s, waiting for the writer\n", topo.Addr(0))
		if err := bench.RunMeshHome(topo, os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	m, err := bench.RunMeshWriter(topo, k, serial)
	if err != nil {
		fail(err)
	}
	fmt.Printf("writer: node %d flushed %d dirty objects homed on node 0\n", topo.Self, m.K)
	fmt.Printf("  wire writes during flush: %d (messages: %d)\n", m.Writes, m.Msgs)
	fmt.Printf("  dials: %d  queue stalls: %d (%.3fms)  misrouted: %d\n",
		m.Dials, m.Stalls, float64(m.StallNs)/1e6, m.Misrouted)
	fmt.Printf("  done reply survived home shutdown: %v\n", m.DoneAcked)
}

func main() {
	if bench.MeshChildMain() {
		return
	}
	nodes := flag.Int("nodes", 4, "number of simulated processors")
	exp := flag.String("exp", "all", "experiment to run (F1, T1, E1..E14, E16, E17, or all)")
	node := flag.Int("node", -1, "multi-process mode: this process's node ID")
	listen := flag.String("listen", "", "multi-process mode: override this node's bind address")
	peers := flag.String("peers", "", `multi-process mode: topology as "0=host:port,1=host:port,..."`)
	topoPath := flag.String("topology", "", "multi-process mode: topology JSON file")
	meshK := flag.Int("mesh-k", 64, "multi-process mode: dirty objects the writer flushes")
	meshSerial := flag.Bool("mesh-serial", false, "multi-process mode: the writer flushes after every write (the serial baseline)")
	flag.Parse()

	if *peers != "" || *topoPath != "" {
		meshMain(*topoPath, *peers, *listen, *node, *meshK, *meshSerial)
		return
	}

	runners := map[string]func(int) *bench.Result{
		"F1": bench.F1, "T1": bench.T1, "E1": bench.E1, "E2": bench.E2,
		"E3": bench.E3, "E4": bench.E4, "E5": bench.E5, "E6": bench.E6,
		"E7": bench.E7, "E8": bench.E8, "E9": bench.E9, "E10": bench.E10,
		"E11": bench.E11, "E12": bench.E12, "E13": bench.E13, "E14": bench.E14,
		"E16": bench.E16, "E17": bench.E17,
	}

	var results []*bench.Result
	if strings.EqualFold(*exp, "all") {
		results = bench.All(*nodes)
	} else {
		run, ok := runners[strings.ToUpper(*exp)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; choose F1, T1, E1..E14, E16, E17, or all\n", *exp)
			os.Exit(2)
		}
		results = []*bench.Result{run(*nodes)}
	}
	for _, r := range results {
		fmt.Println(r)
	}
}
