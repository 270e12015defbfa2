package stress

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"share/internal/server"
)

// TestStressServer is the make-check stress cell: 8 workers over 3
// tenants, each mirroring its writes locally and verifying every read,
// over real TCP against the full serving stack (protocol loop, couch,
// fsim, qos admission, multi-channel device) under the race detector.
func TestStressServer(t *testing.T) {
	cfg := Config{
		Workers: 8,
		Tenants: 3,
		Cycles:  150,
		Keys:    24,
		Seed:    42,
		Server:  server.Config{Blocks: 256, PageSize: 512, BatchSize: 4},
	}
	if testing.Short() {
		cfg.Workers = 4
		cfg.Cycles = 60
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if rep.Failed() {
		t.Fatalf("stress run failed: %s", rep)
	}
	if want := int64(cfg.Workers * cfg.Cycles); rep.Cycles != want {
		t.Fatalf("cycles = %d, want %d", rep.Cycles, want)
	}
}

// TestStressSingleTenant keeps every worker on one tenant so all
// connections contend on one couch store — the hot-latch variant.
func TestStressSingleTenant(t *testing.T) {
	rep, err := Run(Config{
		Workers: 6,
		Tenants: 1,
		Cycles:  80,
		Keys:    16,
		Seed:    7,
		Server:  server.Config{Blocks: 256, PageSize: 512, BatchSize: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if rep.Failed() {
		t.Fatalf("stress run failed: %s", rep)
	}
}

// flakyProxy forwards TCP to backend but kills the first drops
// connections on sight — the deterministic stand-in for connection
// resets and server restarts.
func flakyProxy(t *testing.T, backend string, drops int32) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var seen atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if seen.Add(1) <= drops {
				conn.Close()
				continue
			}
			back, err := net.Dial("tcp", backend)
			if err != nil {
				conn.Close()
				continue
			}
			go func() {
				defer back.Close()
				io.Copy(back, conn)
			}()
			go func() {
				defer conn.Close()
				io.Copy(conn, back)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestStressRetriesTransientDrops: a worker whose first two connections
// are reset recovers by redialing with backoff, re-issuing USE, and
// replaying the in-flight command — the run completes with the retries
// counted and zero errors, and the data model still verifies exactly.
func TestStressRetriesTransientDrops(t *testing.T) {
	cfg := Config{Workers: 1, Tenants: 1, Cycles: 40, Keys: 8, Seed: 3,
		Server: server.Config{Blocks: 128, PageSize: 512, BatchSize: 2}}
	s, err := server.New(cfg.Server)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })

	rep := worker(flakyProxy(t, addr.String(), 2), 0, cfg)
	t.Log(rep)
	if rep.Retries < 2 {
		t.Fatalf("retries = %d, want >= 2 (two dropped connections)", rep.Retries)
	}
	if rep.Failed() {
		t.Fatalf("transient drops surfaced as errors: %s", rep)
	}
	if rep.Cycles != int64(cfg.Cycles) {
		t.Fatalf("cycles = %d, want %d", rep.Cycles, cfg.Cycles)
	}
}

// TestStressRetryBudgetExhausts: when the transport never comes back the
// retry loop must give up after its bounded budget, not spin forever.
func TestStressRetryBudgetExhausts(t *testing.T) {
	// A listener that drops every connection: dials succeed, commands die.
	addr := flakyProxy(t, "127.0.0.1:1", 1<<30)
	cfg := Config{Workers: 1, Tenants: 1, Cycles: 5, Keys: 4, Seed: 3}
	rep := worker(addr, 0, cfg)
	t.Log(rep)
	if !rep.Failed() {
		t.Fatal("dead transport did not surface as an error")
	}
	if rep.Retries != server.RetryMax {
		t.Fatalf("retries = %d, want exactly the budget %d", rep.Retries, server.RetryMax)
	}
}

// scriptedServer is a faithful in-memory stand-in for shareserver that
// misbehaves exactly once per error class: the 3rd SET is refused with a
// plain ERR, the 6th with ERR DEGRADED, the 2nd GET answers a wrong
// value, the 7th an ERR, and the 5th GET kills the connection and every
// redial until the client's retry budget is spent. A refused or dropped command is not
// applied, so everything else the worker reads still matches its model.
func scriptedServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var (
		mu         sync.Mutex
		data       = map[string]string{}
		sets, gets int
		drops      int
	)
	// reply answers one command; ok=false kills the connection instead.
	reply := func(line string) (resp string, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		cmd, rest, _ := strings.Cut(line, " ")
		switch cmd {
		case "SET":
			sets++
			if sets == 3 {
				return "ERR boom", true
			}
			if sets == 6 {
				return "ERR DEGRADED device is read-only", true
			}
			k, v, _ := strings.Cut(rest, " ")
			data[k] = v
		case "GET":
			gets++
			if gets == 2 {
				return "VAL bogus", true
			}
			if gets == 5 {
				drops = server.RetryMax
				return "", false
			}
			if gets == 7 {
				return "ERR read failed", true
			}
			if v, found := data[rest]; found {
				return "VAL " + v, true
			}
			return "NIL", true
		case "DEL":
			if _, found := data[rest]; !found {
				return "NIL", true
			}
			delete(data, rest)
		}
		return "OK", true // USE, COMMIT, QUIT, and the applied SET/DEL
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			drop := drops > 0
			if drop {
				drops--
			}
			mu.Unlock()
			if drop {
				conn.Close()
				continue
			}
			go func() {
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					resp, ok := reply(strings.TrimRight(line, "\n"))
					if !ok {
						return
					}
					fmt.Fprintf(conn, "%s\n", resp)
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestStressErrorAccounting injects one failure of each class — a
// transport that stays dead past the retry budget, a plain ERR on a
// write and on a read, an ERR DEGRADED and a wrong value — and requires each to land in its own
// Report counter: none folded into another (the DataErrors += ReadErrors
// bug class) and none absorbed by the retry path as a mere retry.
func TestStressErrorAccounting(t *testing.T) {
	cfg := Config{Workers: 1, Tenants: 1, Cycles: 60, Keys: 8, Seed: 5}
	rep := worker(scriptedServer(t), 0, cfg)
	t.Log(rep)
	want := Report{
		Cycles:          int64(cfg.Cycles) - 5, // each injected failure costs its cycle
		Retries:         server.RetryMax,
		TransportErrors: 1,
		DegradedErrors:  1,
		WriteErrors:     1,
		ReadErrors:      1,
		DataErrors:      1,
	}
	if rep != want {
		t.Fatalf("report = %+v\nwant     %+v", rep, want)
	}
}

// TestReportMerge pins the accounting arithmetic.
func TestReportMerge(t *testing.T) {
	a := Report{Cycles: 10, WriteErrors: 1, TransportErrors: 4}
	a.Merge(Report{Cycles: 5, ReadErrors: 2, DataErrors: 3, DegradedErrors: 5, Retries: 6})
	want := Report{Cycles: 15, WriteErrors: 1, ReadErrors: 2, DataErrors: 3, TransportErrors: 4, DegradedErrors: 5, Retries: 6}
	if a != want {
		t.Fatalf("merge = %+v, want %+v", a, want)
	}
	if !a.Failed() {
		t.Fatal("Failed() = false with errors present")
	}
	clean := Report{Cycles: 99}
	if clean.Failed() {
		t.Fatal("Failed() = true with no errors")
	}
}
