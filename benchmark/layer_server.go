package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"slices"
	"time"

	"share/internal/server"
)

// Adapter for internal/server. Touches: server.Config{ShareMode},
// server.New, Server.{Listen, Serve, Close, Device, Admission}, and the
// wire protocol of the package comment (USE, SET, GET, COMMIT, QUIT; OK,
// VAL, NIL, ERR).

// serveRound is one server with everything at its defaults (512 blocks,
// 4 channels, batch 8), listening on a loopback port of the kernel's
// choosing and serving.
type serveRound struct {
	srv    *server.Server
	addr   string
	served chan error
}

func startServer(share bool) (*serveRound, error) {
	srv, err := server.New(server.Config{ShareMode: share})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// Formatting the file system is set-up, not serving.
	srv.Device().ResetStats()
	r := &serveRound{srv: srv, addr: addr.String(), served: make(chan error, 1)}
	go func() { r.served <- srv.Serve() }()
	return r, nil
}

// stop closes the server, waits for its accept loop and every connection
// handler to end, and returns what the round's device and gate counted.
func (r *serveRound) stop() (devCounters, qosCounters, error) {
	err := r.srv.Close()
	if serr := <-r.served; err == nil {
		err = serr
	}
	return device{r.srv.Device()}.counters(), readQoS(r.srv.Admission()), err
}

// conn is one client connection speaking the line protocol.
type conn struct {
	c   net.Conn
	r   *bufio.Reader
	buf []byte
}

func dial(addr, tenant string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cn := &conn{c: c, r: bufio.NewReader(c), buf: make([]byte, 0, 256)}
	if resp, err := cn.roundTrip(append(cn.buf[:0], "USE "+tenant+"\n"...)); err != nil || string(resp) != "OK" {
		c.Close()
		return nil, fmt.Errorf("USE %s: %q, %v", tenant, resp, err)
	}
	return cn, nil
}

// roundTrip sends one request line and returns the reply without its
// newline; the slice is only good until the next call.
func (cn *conn) roundTrip(line []byte) ([]byte, error) {
	if _, err := cn.c.Write(line); err != nil {
		return nil, err
	}
	resp, err := cn.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(resp, "\r\n"), nil
}

func (cn *conn) close() {
	cn.roundTrip(append(cn.buf[:0], "QUIT\n"...)) // the reply does not matter: the socket is closed next
	cn.c.Close()
}

// serverMetrics turns the traced run's per-request spans into the per-
// command latencies.
func serverMetrics(m metricSet, s map[string]*opSamples, newMs []float64) {
	var all []int64
	for _, cmd := range []string{"set", "get", "commit"} {
		o := s["server."+cmd]
		if o == nil {
			continue
		}
		m["server."+cmd+"_wall_p50_us"] = float64(percentile(o.wall, 50)) / 1e3
		m["server."+cmd+"_wall_p99_us"] = float64(percentile(o.wall, 99)) / 1e3
		all = append(all, o.wall...)
	}
	slices.Sort(all)
	m["server.wall_p999_us"] = float64(percentile(all, 99.9)) / 1e3
	m["server.new_wall_ms"] = median(newMs)
}

// probeServer times a GET of an absent key on one otherwise idle
// connection: line parse, tenant lookup and two loopback hops — the floor
// under every request.
func probeServer(rc *runCtx, m metricSet) error {
	ops := rc.probeOps(20_000)
	r, err := startServer(true)
	if err != nil {
		return err
	}
	cn, err := dial(r.addr, "probe")
	if err != nil {
		r.stop()
		return err
	}
	lat := make([]int64, 0, ops)
	var fe errTally
	for i := 0; i < ops; i++ {
		w0 := time.Now()
		resp, err := cn.roundTrip(append(cn.buf[:0], "GET absent\n"...))
		lat = append(lat, int64(time.Since(w0)))
		if err == nil && string(resp) != "NIL" {
			err = fmt.Errorf("GET absent: %q", resp)
		}
		fe.keep(err)
	}
	cn.close()
	_, _, err = r.stop()
	fe.keep(err)
	slices.Sort(lat)
	m["server.nil_get_wall_p50_us"] = float64(percentile(lat, 50)) / 1e3
	return fe.err
}
