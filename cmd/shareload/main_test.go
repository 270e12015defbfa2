package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
)

// fakeServer answers every connection's USE, GET, SET and COMMIT with
// success, except that it answers ERR to the first SET and to the final
// COMMIT, the one just before QUIT. ops is the client's command count, so
// counting USE as line 0 the final COMMIT is line ops+1.
func fakeServer(t *testing.T, ops int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r := bufio.NewReader(conn)
				failedSet := false
				for n := 0; ; n++ {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					resp := "OK"
					switch {
					case strings.HasPrefix(line, "SET ") && !failedSet:
						failedSet, resp = true, "ERR injected"
					case strings.HasPrefix(line, "GET "):
						resp = "NIL"
					case line == "COMMIT\n" && n == ops+1:
						resp = "ERR injected"
					}
					fmt.Fprintf(conn, "%s\n", resp)
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRunCountsFailedFinalCommit: the failed SET and the failed final
// COMMIT each count once in errs, and every other command in ops.
func TestRunCountsFailedFinalCommit(t *testing.T) {
	const ops = 40
	got, err := run(load{addr: fakeServer(t, ops), clients: 1, tenants: 1, ops: ops, valLen: 8, seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []result{{tenant: "tenant0", ops: ops - 1, errs: 2}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("tally = %+v, want %+v", got, want)
	}
}

// TestRunTalliesTenantsInOrder: five clients over three tenants fold into
// one tally per tenant, listed tenant0, tenant1, tenant2.
func TestRunTalliesTenantsInOrder(t *testing.T) {
	const ops = 20
	got, err := run(load{addr: fakeServer(t, ops), clients: 5, tenants: 3, ops: ops, valLen: 8, seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []result{
		{tenant: "tenant0", ops: 2 * (ops - 1), errs: 4},
		{tenant: "tenant1", ops: 2 * (ops - 1), errs: 4},
		{tenant: "tenant2", ops: ops - 1, errs: 2},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("tally = %+v, want %+v", got, want)
	}
}

// TestRunRejectsEmptyLoad: a zero count is a usage error, not a divide by
// zero or an empty run.
func TestRunRejectsEmptyLoad(t *testing.T) {
	for _, l := range []load{
		{clients: 0, tenants: 1, ops: 1},
		{clients: 1, tenants: 0, ops: 1},
		{clients: 1, tenants: 1, ops: 0},
		{clients: 1, tenants: 1, ops: 1, valLen: -1},
	} {
		if _, err := run(l); err == nil {
			t.Errorf("run(%+v) accepted", l)
		}
	}
}
