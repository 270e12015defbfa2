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

	results := make(chan result, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	for cl := 0; cl < *clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant%d", cl%*tenants)
			res := result{tenant: tenant}
			c := server.NewClient(*addr, *seed+int64(cl)+1<<32)
			defer func() {
				res.retries = c.Retries()
				c.Close()
				results <- res
			}()
			if resp, err := c.Use(tenant); err != nil || resp != "OK" {
				res.errs++
				return
			}
			rng := rand.New(rand.NewSource(*seed + int64(cl)))
			value := strings.Repeat("x", *valLen)
			for i := 0; i < *ops; i++ {
				key := fmt.Sprintf("c%dk%d", cl, rng.Intn(*ops))
				line := fmt.Sprintf("SET %s %s", key, value)
				switch rng.Intn(10) {
				case 0:
					line = "COMMIT"
				case 1, 2, 3:
					line = "GET " + key
				}
				// A transport error past the retry budget counts like a
				// server-level ERR reply.
				if resp, _, err := c.Do(line); err != nil || strings.HasPrefix(resp, "ERR") {
					res.errs++
				} else {
					res.ops++
				}
			}
			c.Do("COMMIT")
			c.Do("QUIT")
		}(cl)
	}
	wg.Wait()
	close(results)

	perTenant := make(map[string]*result)
	totalOps, totalErrs, totalRetries := 0, 0, 0
	for res := range results {
		agg := perTenant[res.tenant]
		if agg == nil {
			agg = &result{tenant: res.tenant}
			perTenant[res.tenant] = agg
		}
		agg.ops += res.ops
		agg.errs += res.errs
		agg.retries += res.retries
		totalOps += res.ops
		totalErrs += res.errs
		totalRetries += res.retries
	}
	elapsed := time.Since(start).Seconds()
	for tenant, agg := range perTenant {
		fmt.Printf("%-12s ops=%-8d errs=%d retries=%d\n", tenant, agg.ops, agg.errs, agg.retries)
	}
	fmt.Printf("total        ops=%-8d errs=%d retries=%d  %.0f ops/s (wall)\n",
		totalOps, totalErrs, totalRetries, float64(totalOps)/elapsed)
	if totalErrs > 0 {
		os.Exit(1)
	}
}
