// Command shareload drives a shareserver with concurrent closed-loop
// clients spread across tenants and reports per-tenant op counts and
// error totals. It is the interactive companion to the stress harness:
// point it at a running shareserver to watch fair-share admission shape
// a mixed-tenant load.
//
// Transient transport failures (connection reset, server restart) are
// retried with bounded exponential backoff — redial, re-USE, replay — by
// server.Client; recovered retries are counted separately from errors.
//
// Usage:
//
//	shareload [-addr 127.0.0.1:7379] [-clients 8] [-tenants 2]
//	          [-ops 1000] [-value-bytes 64] [-seed 42]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"share/internal/server"
)

type result struct {
	tenant  string
	ops     int
	errs    int
	retries int
}

// load is one shareload run: clients closed-loop connections to addr,
// spread round-robin over tenants, each issuing ops commands.
type load struct {
	addr             string
	clients, tenants int
	ops, valLen      int
	seed             int64
}

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7379", "shareserver address")
		clients = flag.Int("clients", 8, "concurrent connections")
		tenants = flag.Int("tenants", 2, "tenants to spread clients across")
		ops     = flag.Int("ops", 1000, "operations per client")
		valLen  = flag.Int("value-bytes", 64, "value size in bytes")
		seed    = flag.Int64("seed", 42, "random seed")
	)
	flag.Parse()

	start := time.Now()
	perTenant, err := run(load{*addr, *clients, *tenants, *ops, *valLen, *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "shareload:", err)
		flag.Usage()
		os.Exit(2)
	}
	elapsed := time.Since(start).Seconds()
	var total result
	for _, agg := range perTenant {
		fmt.Printf("%-12s ops=%-8d errs=%d retries=%d\n", agg.tenant, agg.ops, agg.errs, agg.retries)
		total.ops += agg.ops
		total.errs += agg.errs
		total.retries += agg.retries
	}
	fmt.Printf("total        ops=%-8d errs=%d retries=%d  %.0f ops/s (wall)\n",
		total.ops, total.errs, total.retries, float64(total.ops)/elapsed)
	if total.errs > 0 {
		os.Exit(1)
	}
}

// run drives the load and returns one tally per tenant, in tenant order.
// A command counts in ops when the server answers it without ERR, and in
// errs otherwise; the final COMMIT of each client counts only if it fails,
// since a failed last batch loses SETs already counted in ops.
func run(l load) ([]result, error) {
	if l.clients < 1 || l.tenants < 1 || l.ops < 1 || l.valLen < 0 {
		return nil, fmt.Errorf("-clients, -tenants and -ops must be at least 1, -value-bytes at least 0")
	}
	perClient := make([]result, l.clients)
	var wg sync.WaitGroup
	for cl := 0; cl < l.clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			res := &perClient[cl]
			res.tenant = fmt.Sprintf("tenant%d", cl%l.tenants)
			c := server.NewClient(l.addr, l.seed+int64(cl)+1<<32)
			defer func() {
				res.retries = c.Retries()
				c.Close()
			}()
			if resp, err := c.Use(res.tenant); err != nil || resp != "OK" {
				res.errs++
				return
			}
			// A transport error past the retry budget counts like a
			// server-level ERR reply.
			failed := func(line string) bool {
				resp, _, err := c.Do(line)
				return err != nil || strings.HasPrefix(resp, "ERR")
			}
			rng := rand.New(rand.NewSource(l.seed + int64(cl)))
			value := strings.Repeat("x", l.valLen)
			for i := 0; i < l.ops; i++ {
				key := fmt.Sprintf("c%dk%d", cl, rng.Intn(l.ops))
				line := fmt.Sprintf("SET %s %s", key, value)
				switch rng.Intn(10) {
				case 0:
					line = "COMMIT"
				case 1, 2, 3:
					line = "GET " + key
				}
				if failed(line) {
					res.errs++
				} else {
					res.ops++
				}
			}
			if failed("COMMIT") {
				res.errs++
			}
			c.Do("QUIT")
		}(cl)
	}
	wg.Wait()

	// Client cl serves tenant cl%tenants, so the first min(clients,
	// tenants) clients name every tenant once, in order.
	perTenant := perClient[:min(l.clients, l.tenants)]
	for cl := len(perTenant); cl < l.clients; cl++ {
		agg, res := &perTenant[cl%l.tenants], perClient[cl]
		agg.ops += res.ops
		agg.errs += res.errs
		agg.retries += res.retries
	}
	return perTenant, nil
}
