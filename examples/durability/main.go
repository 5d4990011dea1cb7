// Durability: start a ring with a write-ahead log, write values, tear
// the whole cluster down, start a fresh cluster over the same log
// directory — and read every acknowledged write back. With the default
// train sync mode a write is acknowledged only after one fdatasync
// covers the frame train that carried it, so what the ack promised is
// exactly what the restart serves.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/atomicstore"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "atomicstore-wal-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	ctx := context.Background()

	// 1. A durable three-server ring: each server logs to its own
	// subdirectory of dir and gates ring frames on group-commit syncs.
	cluster, err := atomicstore.StartCluster(3, atomicstore.WithDurability(dir))
	if err != nil {
		return err
	}
	cl, err := cluster.Client()
	if err != nil {
		_ = cluster.Close()
		return err
	}
	for obj := atomicstore.ObjectID(0); obj < 4; obj++ {
		val := fmt.Sprintf("value-%d", obj)
		if _, err := cl.Write(ctx, obj, []byte(val)); err != nil {
			return err
		}
		fmt.Printf("wrote %q to object %d\n", val, obj)
	}
	_ = cl.Close()
	if err := cluster.Close(); err != nil {
		return err
	}
	fmt.Println("cluster stopped; state lives only in", dir)

	// 2. A brand-new cluster over the same directory: NewServer replays
	// each server's log before the ring starts, so the first read already
	// sees every acknowledged write.
	cluster, err = atomicstore.StartCluster(3, atomicstore.WithDurability(dir))
	if err != nil {
		return err
	}
	defer func() { _ = cluster.Close() }()
	cl, err = cluster.Client()
	if err != nil {
		return err
	}
	defer func() { _ = cl.Close() }()
	for obj := atomicstore.ObjectID(0); obj < 4; obj++ {
		v, tag, err := cl.Read(ctx, obj)
		if err != nil {
			return err
		}
		fmt.Printf("after restart, object %d reads %q (tag %s)\n", obj, v, tag)
	}
	return nil
}
