package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"share/internal/nand"
	"share/internal/sim"
)

type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

func (c *client) cmd(line string) (string, error) {
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		return "", err
	}
	resp, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(resp, "\n"), nil
}

func (c *client) must(t *testing.T, line, want string) {
	t.Helper()
	resp, err := c.cmd(line)
	if err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	if resp != want {
		t.Fatalf("%s: got %q, want %q", line, resp, want)
	}
}

func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })
	return s, addr.String()
}

// TestServerProtocol exercises the wire protocol end to end on one
// connection: tenant selection, set/get/delete, commit, stats, errors.
func TestServerProtocol(t *testing.T) {
	_, addr := startServer(t, Config{Blocks: 128, PageSize: 512})
	c := dial(t, addr)
	defer c.conn.Close()

	if resp, _ := c.cmd("GET k"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("GET before USE = %q, want ERR", resp)
	}
	c.must(t, "USE alpha", "OK")
	c.must(t, "GET missing", "NIL")
	c.must(t, "SET k hello world", "OK")
	c.must(t, "GET k", "VAL hello world")
	c.must(t, "COMMIT", "OK")
	c.must(t, "DEL k", "OK")
	c.must(t, "DEL k", "NIL")
	c.must(t, "GET k", "NIL")
	if resp, _ := c.cmd("STATS"); !strings.HasPrefix(resp, "OK ") {
		t.Fatalf("STATS = %q", resp)
	}
	if resp, _ := c.cmd("BOGUS"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("BOGUS = %q, want ERR", resp)
	}
	c.must(t, "QUIT", "OK")
}

// TestServerReadYourWritesInShareBatch: the server keeps no doc cache, so
// in SHARE mode a GET between SET and COMMIT must still see the SET even
// though the remap that installs it is deferred to the commit.
func TestServerReadYourWritesInShareBatch(t *testing.T) {
	_, addr := startServer(t, Config{Blocks: 128, PageSize: 512, ShareMode: true})
	c := dial(t, addr)
	defer c.conn.Close()
	c.must(t, "USE alpha", "OK")
	c.must(t, "SET k v1", "OK")
	c.must(t, "COMMIT", "OK")
	c.must(t, "SET k v2", "OK")
	c.must(t, "GET k", "VAL v2")
	c.must(t, "COMMIT", "OK")
	c.must(t, "GET k", "VAL v2")
}

// TestServerDegradedWireError drives the server's device into read-only
// degradation mid-session — scheduled permanent program faults retire
// blocks past a one-block spare budget — and checks the protocol
// contract: mutations answer with the typed "ERR DEGRADED" form (not a
// bare ERR a client would retry), reads keep working, and STATS flips
// its degraded field from 0 to 1.
func TestServerDegradedWireError(t *testing.T) {
	plan := nand.NewFaultPlan(11)
	// The band starts well past format/store-creation programs, then
	// every program faults: the write retries cascade through block
	// retirements until the one-block spare budget is exhausted and the
	// device latches read-only — long before churn can fill it.
	for n := int64(300); n < 1000; n++ {
		plan.AtProgram(n, nand.FaultProgramPermanent)
	}
	_, addr := startServer(t, Config{
		Blocks: 64, PageSize: 512, BatchSize: 1,
		SpareBlocks: 1, Fault: plan,
	})
	c := dial(t, addr)
	defer c.conn.Close()
	c.must(t, "USE alpha", "OK")
	c.must(t, "SET stable before-degradation", "OK")
	c.must(t, "COMMIT", "OK")
	if resp, _ := c.cmd("STATS"); !strings.Contains(resp, " degraded=0") {
		t.Fatalf("STATS before degradation = %q, want degraded=0", resp)
	}

	// Churn until the device degrades. The very write that exhausts the
	// spare budget can surface as a transitional "device full" from the
	// retirement cascade; every mutation after the latch must carry the
	// typed form.
	var degraded string
	for i := 0; i < 400 && degraded == ""; i++ {
		resp, err := c.cmd(fmt.Sprintf("SET churn%d %s", i, strings.Repeat("x", 64)))
		if err != nil {
			t.Fatalf("SET churn%d: %v", i, err)
		}
		if strings.HasPrefix(resp, "ERR DEGRADED ") {
			degraded = resp
		}
	}
	if degraded == "" {
		t.Fatal("device never answered a mutation with ERR DEGRADED")
	}

	// The condition is latched: the next mutation is typed too, reads
	// and STATS keep serving, and STATS reports it.
	if resp, _ := c.cmd("SET another value"); !strings.HasPrefix(resp, "ERR DEGRADED ") {
		t.Fatalf("second mutation after degradation = %q", resp)
	}
	c.must(t, "GET stable", "VAL before-degradation")
	resp, err := c.cmd("STATS")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp, "OK ") || !strings.Contains(resp, " degraded=1") {
		t.Fatalf("STATS after degradation = %q, want degraded=1", resp)
	}
	// Ordinary protocol errors stay untyped: clients must not confuse a
	// usage mistake with a degraded store.
	if resp, _ := c.cmd("BOGUS"); strings.Contains(resp, "DEGRADED") {
		t.Fatalf("unknown command mis-typed as degraded: %q", resp)
	}
	c.must(t, "QUIT", "OK")
}

// TestServerTenantIsolation: the same key written by two tenants holds
// two independent values, each durable in its own database file.
func TestServerTenantIsolation(t *testing.T) {
	s, addr := startServer(t, Config{Blocks: 128, PageSize: 512})

	a := dial(t, addr)
	defer a.conn.Close()
	b := dial(t, addr)
	defer b.conn.Close()
	a.must(t, "USE alpha", "OK")
	b.must(t, "USE beta", "OK")
	a.must(t, "SET shared from-alpha", "OK")
	b.must(t, "SET shared from-beta", "OK")
	a.must(t, "COMMIT", "OK")
	b.must(t, "COMMIT", "OK")
	a.must(t, "GET shared", "VAL from-alpha")
	b.must(t, "GET shared", "VAL from-beta")

	if !s.fs.Exists("alpha.couch") || !s.fs.Exists("beta.couch") {
		t.Fatal("per-tenant database files missing")
	}
}

// TestServerConcurrentClients runs many connections across a few tenants
// in parallel — connections of the same tenant share one store — and
// then verifies every write read back correctly. The -race regression
// for the whole serving stack: protocol loop, lazy store opening, couch
// latching, fsim, qos admission, device.
func TestServerConcurrentClients(t *testing.T) {
	s, addr := startServer(t, Config{Blocks: 256, PageSize: 512, BatchSize: 4})

	const clients = 8
	const tenants = 3
	const ops = 40
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := dial(t, addr)
			defer c.conn.Close()
			tenant := fmt.Sprintf("tenant%d", cl%tenants)
			if resp, err := c.cmd("USE " + tenant); err != nil || resp != "OK" {
				errs <- fmt.Errorf("USE: %q %v", resp, err)
				return
			}
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("c%dk%d", cl, i)
				if resp, err := c.cmd(fmt.Sprintf("SET %s v-%d-%d", key, cl, i)); err != nil || resp != "OK" {
					errs <- fmt.Errorf("SET: %q %v", resp, err)
					return
				}
			}
			if resp, err := c.cmd("COMMIT"); err != nil || resp != "OK" {
				errs <- fmt.Errorf("COMMIT: %q %v", resp, err)
				return
			}
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("c%dk%d", cl, i)
				want := fmt.Sprintf("VAL v-%d-%d", cl, i)
				resp, err := c.cmd("GET " + key)
				if err != nil || resp != want {
					errs <- fmt.Errorf("GET %s: %q %v, want %q", key, resp, err, want)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// All tenants were billed at the admission gate.
	ast := s.Admission().Stats(sim.NewSoloTask("check"))
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("tenant%d", i)
		if ast.Consumed[name] == 0 {
			t.Fatalf("tenant %s not billed at the gate: %v", name, ast.Consumed)
		}
	}
}
