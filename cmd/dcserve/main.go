// Command dcserve is the batched serving daemon over the dual-cube
// runtime: it owns a pool of warmed shards per order, coalesces compatible
// concurrent requests into lane-batched kernel passes, and serves
// HTTP+JSON with admission control and Prometheus-style metrics.
//
// Usage:
//
//	dcserve                          # serve D_4..D_6 on :8437
//	dcserve -addr :9000 -orders 5,6 -shards 2 -maxbatch 32 -window 200us -queue 256
//
// Serving endpoints:
//
//	POST /v1/prefix     {"n":5,"data":[...]}           → {"data":[...],"batch":k,...}
//	POST /v1/allreduce  {"n":5,"data":[...]}           → {"data":[total],...}
//	POST /v1/sort       {"n":5,"data":[...],"desc":t}  → {"data":[sorted],...}
//	POST /v1/broadcast  {"n":5,"root":0,"value":v}     → {"data":[v],...}
//	GET  /metrics                                      Prometheus text format
//	GET  /healthz                                      200 while serving
//	POST /admin/shard?n=5&shard=0&action=degrade&faults=2&seed=1
//
// Saturated queues answer 429 with Retry-After; an order with no shard able
// to run the op answers 503.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"dualcube/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8437", "listen address")
	orders := flag.String("orders", "4,5,6", "comma-separated dual-cube orders to serve")
	shards := flag.Int("shards", 1, "runtime shards per order")
	maxBatch := flag.Int("maxbatch", 32, "max requests coalesced into one kernel pass")
	window := flag.Duration("window", 200*time.Microsecond, "batch collection window")
	queue := flag.Int("queue", 256, "pending-queue capacity per (op, order) line")
	flag.Parse()

	ns, err := parseInts(*orders)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcserve: bad -orders:", err)
		os.Exit(1)
	}
	s, err := serve.New(serve.Config{
		Orders:   ns,
		Shards:   *shards,
		MaxBatch: *maxBatch,
		Window:   *window,
		QueueCap: *queue,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcserve:", err)
		os.Exit(1)
	}
	log.Printf("dcserve: serving orders %v (%d shard(s) each, max batch %d, window %v) on %s",
		ns, *shards, *maxBatch, *window, *addr)
	log.Fatal(http.ListenAndServe(*addr, serve.Handler(s)))
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
