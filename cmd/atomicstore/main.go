// Command atomicstore is the client CLI for a running TCP cluster: it
// reads and writes registers and can generate sustained load.
//
// Usage:
//
//	atomicstore -servers 1=127.0.0.1:7001,... write -object 0 -value hello
//	atomicstore -servers 1=127.0.0.1:7001,... read  -object 0
//	atomicstore -servers 1=127.0.0.1:7001,... load  -readers 4 -writers 2 -duration 5s
//
// Against a federation, pass the full federation map instead (";"
// separates rings); every operation is routed client-side to the ring
// owning its object:
//
//	atomicstore -federation 1=h:7001,2=h:7002;1=h:7003,2=h:7004 read -object 0
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/atomicstore"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "atomicstore: %v\n", err)
		os.Exit(1)
	}
}

// storeClient is the operation surface the subcommands need; both the
// single-ring *atomicstore.Client and the *atomicstore.FederatedClient
// satisfy it (and, through the same methods, workload.Storage).
type storeClient interface {
	Write(ctx context.Context, object atomicstore.ObjectID, value []byte) (atomicstore.Version, error)
	Read(ctx context.Context, object atomicstore.ObjectID) ([]byte, atomicstore.Version, error)
	Close() error
}

func run() error {
	var (
		serversFlag = flag.String("servers", "", "comma-separated id=host:port list")
		fedFlag     = flag.String("federation", "", "full federation map, rings separated by \";\" (each ring in -servers notation); mutually exclusive with -servers")
		clientID    = flag.Uint("client-id", 0, "this client's process id (0 = random; ids must be unique across clients)")
		timeout     = flag.Duration("timeout", 2*time.Second, "per-attempt timeout")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		return fmt.Errorf("missing subcommand: write | read | load")
	}

	opts := []atomicstore.Option{atomicstore.WithAttemptTimeout(*timeout)}
	if *clientID != 0 {
		opts = append(opts, atomicstore.WithClientID(atomicstore.ServerID(*clientID)))
	}
	var cl storeClient
	switch {
	case *fedFlag != "" && *serversFlag != "":
		return fmt.Errorf("use either -servers or -federation, not both")
	case *fedFlag != "":
		rings, err := atomicstore.ParseFederation(*fedFlag)
		if err != nil {
			return err
		}
		fc, err := atomicstore.DialFederation(rings, opts...)
		if err != nil {
			return err
		}
		cl = fc
	default:
		ring, err := atomicstore.ParseRing(*serversFlag)
		if err != nil {
			return err
		}
		scl, err := atomicstore.Dial(ring, opts...)
		if err != nil {
			return err
		}
		cl = scl
	}
	defer func() { _ = cl.Close() }()

	ctx := context.Background()
	switch flag.Arg(0) {
	case "write":
		return doWrite(ctx, cl, flag.Args()[1:])
	case "read":
		return doRead(ctx, cl, flag.Args()[1:])
	case "load":
		return doLoad(ctx, cl, flag.Args()[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", flag.Arg(0))
	}
}

// doWrite performs one write.
func doWrite(ctx context.Context, cl storeClient, args []string) error {
	fs := flag.NewFlagSet("write", flag.ContinueOnError)
	object := fs.Uint("object", 0, "register object id")
	value := fs.String("value", "", "value to store")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := cl.Write(ctx, atomicstore.ObjectID(*object), []byte(*value))
	if err != nil {
		return err
	}
	fmt.Printf("ok tag=%s\n", t)
	return nil
}

// doRead performs one read.
func doRead(ctx context.Context, cl storeClient, args []string) error {
	fs := flag.NewFlagSet("read", flag.ContinueOnError)
	object := fs.Uint("object", 0, "register object id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	v, t, err := cl.Read(ctx, atomicstore.ObjectID(*object))
	if err != nil {
		return err
	}
	fmt.Printf("value=%q tag=%s\n", v, t)
	return nil
}

// doLoad generates closed-loop load and reports throughput and latency.
// It fails when any operation failed.
func doLoad(ctx context.Context, cl storeClient, args []string) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	var (
		readers  = fs.Int("readers", 2, "reader goroutine groups")
		writers  = fs.Int("writers", 1, "writer goroutine groups")
		conc     = fs.Int("concurrency", 4, "outstanding ops per group")
		bytes    = fs.Int("bytes", 1024, "value size")
		duration = fs.Duration("duration", 5*time.Second, "measurement window")
		object   = fs.Uint("object", 0, "register object id")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := workload.Config{
		Concurrency: *conc,
		Object:      atomicstore.ObjectID(*object),
		ValueBytes:  *bytes,
		Duration:    *duration,
	}
	for i := 0; i < *readers; i++ {
		cfg.Readers = append(cfg.Readers, cl)
	}
	for i := 0; i < *writers; i++ {
		cfg.Writers = append(cfg.Writers, cl)
	}
	res := workload.Run(ctx, cfg)
	fmt.Printf("reads:  %8.0f ops/s  %7.2f Mbit/s  p50=%v p99=%v\n",
		res.ReadOpsPerSec, res.ReadMbps, res.ReadLatency.P50, res.ReadLatency.P99)
	fmt.Printf("writes: %8.0f ops/s  %7.2f Mbit/s  p50=%v p99=%v\n",
		res.WriteOpsPerSec, res.WriteMbps, res.WriteLatency.P50, res.WriteLatency.P99)
	if res.Errors > 0 {
		return fmt.Errorf("load: %d operations failed", res.Errors)
	}
	return nil
}
