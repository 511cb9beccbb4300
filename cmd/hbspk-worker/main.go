// Command hbspk-worker runs one HBSP^k program as several OS processes:
// a coordinator process listens, N-1 worker processes connect, and each
// runs the same hbsp.Program on the same flat tree of N leaves with
// hbsp.Concurrent — the engine every in-process run uses — hosting one
// pid apiece. This is the paper's PVM-daemon deployment shape: the
// coordinator's pvm.System routes every message and holds every barrier,
// a relay task stands in for each worker, and the socket between them is
// an ordinary pvm.Transport (DESIGN.md §5.10).
//
// Coordinator (pid 0) plus two workers over a unix socket:
//
//	hbspk-worker -listen unix:/tmp/hbspk.sock -nprocs 3 &
//	hbspk-worker -connect unix:/tmp/hbspk.sock -pid 1 -nprocs 3 &
//	hbspk-worker -connect unix:/tmp/hbspk.sock -pid 2 -nprocs 3
//
// Over TCP (port 0 picks a free one; the coordinator prints it):
//
//	hbspk-worker -listen tcp:127.0.0.1:7070 -nprocs 3
//	hbspk-worker -connect tcp:127.0.0.1:7070 -pid 1 -nprocs 3
//
// The program is the catalogue's bcast-reduce entry (internal/catalog):
// the library's broadcast and reduce, once per round, under the engine's
// Verify mode. Every delivery carries a vector clock and a payload
// checksum, every process checks the broadcast against a payload it can
// recompute, and pid 0 checks the reduced total against a closed form,
// so "verify=clean" in the output is an end-to-end correctness
// statement, not just liveness. A process whose check fails takes the
// others down with it: they exit non-zero at their next barrier.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hbspk/internal/catalog"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/pvm"
	"hbspk/internal/pvm/wiretrans"
)

func main() {
	var (
		listen  = flag.String("listen", "", "run as coordinator: net:addr to listen on (unix:/path or tcp:host:port)")
		connect = flag.String("connect", "", "run as worker: net:addr of the coordinator")
		pid     = flag.Int("pid", 0, "this worker's processor id (1..nprocs-1; the coordinator is pid 0)")
		nprocs  = flag.Int("nprocs", 3, "total processors, coordinator included")
		rounds  = flag.Int("rounds", 3, "broadcast+reduce rounds")
		nbytes  = flag.Int("n", 4096, "broadcast payload bytes per round")
		gen     = flag.Int64("gen", 1, "membership generation presented at the handshake")
		timeout = flag.Duration("timeout", 25*time.Second, "startup deadline: how long the coordinator waits for a worker, and a worker redials")
	)
	flag.Parse()

	switch {
	case (*listen == "") == (*connect == ""):
		fatalf("exactly one of -listen or -connect is required")
	case *nprocs < 2:
		fatalf("-nprocs %d: a multi-process run needs at least 2", *nprocs)
	}

	if *listen != "" {
		network, addr, err := splitEndpoint(*listen)
		if err != nil {
			fatalf("%v", err)
		}
		if err := runCoordinator(network, addr, *nprocs, *gen, *rounds, *nbytes, *timeout); err != nil {
			fatalf("coordinator: %v", err)
		}
		return
	}
	network, addr, err := splitEndpoint(*connect)
	if err != nil {
		fatalf("%v", err)
	}
	if *pid < 1 || *pid >= *nprocs {
		fatalf("-pid %d out of range [1,%d)", *pid, *nprocs)
	}
	if err := runWorker(network, addr, *pid, *nprocs, *gen, *rounds, *nbytes, *timeout); err != nil {
		fatalf("worker %d: %v", *pid, err)
	}
}

func runCoordinator(network, addr string, nprocs int, gen int64, rounds, nbytes int, timeout time.Duration) error {
	hub, err := wiretrans.NewHub(network, addr, nprocs, gen, timeout)
	if err != nil {
		return err
	}
	defer func() { _ = hub.Close() }()
	fmt.Printf("hbspk-worker: coordinator listening on %s:%s (nprocs=%d gen=%d)\n",
		network, hub.Addr(), nprocs, gen)

	start := time.Now()
	sent, err := run(nprocs, rounds, nbytes, func() (pvm.Transport, error) { return hub, nil })
	if err != nil {
		return err
	}
	fmt.Printf("hbspk-worker: coordinator done: transport=%s nprocs=%d rounds=%d payload=%dB sent=%dB wall=%v verify=clean\n",
		network, nprocs, rounds, nbytes, sent, time.Since(start).Round(time.Millisecond))
	return nil
}

func runWorker(network, addr string, pid, nprocs int, gen int64, rounds, nbytes int, timeout time.Duration) error {
	sent, err := run(nprocs, rounds, nbytes, func() (pvm.Transport, error) {
		return wiretrans.DialWorker(network, addr, pid, nprocs, gen, timeout)
	})
	if err != nil {
		return err
	}
	fmt.Printf("hbspk-worker: worker %d done: transport=%s rounds=%d sent=%dB verify=clean\n",
		pid, network, rounds, sent)
	return nil
}

// run executes the program on the pids the transport leaves to this
// process and returns the payload bytes they sent.
func run(nprocs, rounds, nbytes int, transport func() (pvm.Transport, error)) (sent int64, err error) {
	entry, err := catalog.Lookup("bcast-reduce")
	if err != nil {
		return 0, err
	}
	tr := model.Homogeneous(nprocs, 0)
	prog := entry.Program(tr, catalog.Args{N: nbytes, Rounds: rounds})
	eng := hbsp.NewConcurrent(tr)
	eng.Verify = true
	eng.Transport = transport
	_, err = eng.Run(func(c hbsp.Ctx) error { return prog(sentCtx{c, &sent}) })
	return sent, err
}

// sentCtx counts the payload bytes a processor sends.
type sentCtx struct {
	hbsp.Ctx
	sent *int64
}

func (c sentCtx) Send(dst, tag int, payload []byte) error {
	*c.sent += int64(len(payload))
	return c.Ctx.Send(dst, tag, payload)
}

// splitEndpoint parses "unix:/path" or "tcp:host:port".
func splitEndpoint(s string) (network, addr string, err error) {
	network, addr, ok := strings.Cut(s, ":")
	if !ok || addr == "" {
		return "", "", fmt.Errorf("endpoint %q: want net:addr (unix:/path or tcp:host:port)", s)
	}
	switch network {
	case "unix", "tcp":
		return network, addr, nil
	default:
		return "", "", fmt.Errorf("endpoint %q: unsupported network %q", s, network)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hbspk-worker: "+format+"\n", args...)
	os.Exit(1)
}
