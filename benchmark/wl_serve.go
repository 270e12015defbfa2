package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"
)

// serve-tenants: shareserver over loopback, two TCP connections each on
// its own tenant, in shareload's mix (60 % SET / 30 % GET / 10 % COMMIT,
// 64-byte values, 3000 keys). The only workload on server, qos and TCP,
// and on real goroutines contending for Device.mu; the drive is fresh, so
// ftl and nand do little. It runs as many short rounds, each on a new
// server: a round is pinned at 3000 requests per connection, below
// ROADMAP item 1's wedge, which on this tree hits between 4530 and 7361
// requests per connection with two tenants ("file too fragmented (24
// extents)"). When item 1 lands a follow-up lengthens the rounds through
// device turnovers. The baseline leg serves with ShareMode off.
var serveTenants = workloadImpl{
	name:      "serve-tenants",
	baseFrac:  0.25,
	baseline:  "ShareMode off",
	paperGain: "no serving figure; batch 8 sits between Fig. 7's batch 4 and 16",
	leg:       serveLeg,
	attribute: serveAttribution,
}

const (
	serveConns      = 2
	serveRequests   = 3000 // per connection per round
	serveKeys       = 3000
	serveValueBytes = 64
	// serveRoundsPerSecond is the SHARE leg's round rate on the reference
	// box: 6000 requests at ~42 k/s.
	serveRoundsPerSecond = 7
	serveVerifyKeys      = 30
)

// roundOut is what one round measured.
type roundOut struct {
	wallNs, setupNs, newNs int64
	errs                   errTally
	dev                    devCounters
	qos                    qosCounters
}

// serveValue renders the value of a key's seq-th SET: the sequence number
// in 20 digits, padded to 64 bytes, so a GET can be checked against the
// model down to the exact write.
func serveValue(dst []byte, seq int64) []byte {
	var d [serveValueBytes]byte
	for i := range d {
		d[i] = 'x'
	}
	for i := 19; i >= 0; i-- {
		d[i] = byte('0' + seq%10)
		seq /= 10
	}
	return append(dst, d[:]...)
}

// connTrace is where a traced connection records its request spans.
type connTrace struct {
	buf    leafBuf
	parent int32
	ids    [3]opID   // set, get, commit
	epoch  time.Time // the tracer's
}

// serveClient is one closed-loop connection of a round.
type serveClient struct {
	cn      *conn
	id      int
	seed    int64
	barrier <-chan struct{}
	start   *time.Time // when the barrier opened; written before it does
	lats    []int64    // request round trips, appended to
	trace   *connTrace // nil: tracing off

	endNs int64 // last reply, since start
	errs  errTally
}

// run waits for the barrier, issues the round's requests and checks every
// reply against its model of the tenant, then — outside the window —
// commits and re-reads a sample of the model.
func (c *serveClient) run() {
	cn := c.cn
	rng := rand.New(rand.NewSource(c.seed))
	model := make([]int64, serveKeys) // key -> sequence number of its last SET, 0 = never set
	var seq int64
	want := make([]byte, 0, serveValueBytes)
	line := cn.buf
	key := func(k int) {
		line = append(line, 'c')
		line = strconv.AppendInt(line, int64(c.id), 10)
		line = append(line, 'k')
		line = strconv.AppendInt(line, int64(k), 10)
	}
	// checkGet holds a reply against the model. exact demands the last
	// acknowledged SET's value, which only holds after a COMMIT: inside an
	// open batch a SHARE-mode store still answers with the committed
	// version (the remap is deferred to commit and the server runs without
	// a document cache; README.md, known limits). Mid-round the check is
	// therefore that the value is one this connection wrote, not newer
	// than the model.
	checkGet := func(k int, resp []byte, exact bool) {
		if model[k] == 0 {
			if string(resp) != "NIL" {
				c.errs.keep(fmt.Errorf("GET c%dk%d: %q, never set", c.id, k, resp))
			}
			return
		}
		ok := bytes.HasPrefix(resp, []byte("VAL ")) && len(resp) == 4+serveValueBytes
		if ok && exact {
			ok = bytes.Equal(resp[4:], serveValue(want[:0], model[k]))
		} else if ok {
			got, err := strconv.ParseInt(string(resp[4:24]), 10, 64)
			ok = err == nil && got >= 1 && got <= model[k]
		}
		if !ok {
			c.errs.keep(fmt.Errorf("GET c%dk%d: %q, model seq %d", c.id, k, resp, model[k]))
		}
	}
	<-c.barrier
	for i := 0; i < serveRequests; i++ {
		k := rng.Intn(serveKeys)
		line = line[:0]
		kind := 0
		switch rng.Intn(10) {
		case 0:
			kind = 2
			line = append(line, "COMMIT"...)
		case 1, 2, 3:
			kind = 1
			line = append(line, "GET "...)
			key(k)
		default:
			seq++
			line = append(line, "SET "...)
			key(k)
			line = append(line, ' ')
			line = serveValue(line, seq)
		}
		line = append(line, '\n')
		w0 := time.Now()
		resp, err := cn.roundTrip(line)
		w1 := time.Now()
		c.lats = append(c.lats, int64(w1.Sub(w0)))
		if t := c.trace; t != nil {
			t.buf.call(t.parent, t.ids[kind], int64(w0.Sub(t.epoch)), int64(w1.Sub(t.epoch)))
		}
		switch {
		case err != nil:
			c.errs.keep(err)
		case kind == 1:
			checkGet(k, resp, false)
		case string(resp) != "OK":
			c.errs.keep(fmt.Errorf("%s: %q", line[:len(line)-1], resp))
		case kind == 0:
			model[k] = seq
		}
	}
	c.endNs = int64(time.Since(*c.start))

	if resp, err := cn.roundTrip(append(line[:0], "COMMIT\n"...)); err != nil || string(resp) != "OK" {
		c.errs.keep(fmt.Errorf("final COMMIT: %q, %v", resp, err))
	}
	for i := 0; i < serveVerifyKeys; i++ {
		k := rng.Intn(serveKeys)
		line = append(line[:0], "GET "...)
		key(k)
		line = append(line, '\n')
		if resp, err := cn.roundTrip(line); err != nil {
			c.errs.keep(err)
		} else {
			checkGet(k, resp, true)
		}
	}
}

// serveRoundRun runs one round: a new server, two connections, the
// requests, the server's end. Each connection's round trips are appended
// to its entry of lats.
func serveRoundRun(rc *runCtx, share bool, round int, lats [][]int64, parent int32) (roundOut, error) {
	var out roundOut
	tr := rc.tr
	s0 := time.Now()
	sph := tr.open(parent, "server", "new", 0)
	r, err := startServer(share)
	tr.close(sph, 0)
	if err != nil {
		return out, err
	}
	out.newNs = int64(time.Since(s0))
	barrier := make(chan struct{})
	var start time.Time
	clients := make([]*serveClient, serveConns)
	for i := range clients {
		cn, err := dial(r.addr, fmt.Sprintf("tenant%d", i))
		if err != nil {
			for _, c := range clients[:i] {
				c.cn.close()
			}
			r.stop()
			return out, err
		}
		clients[i] = &serveClient{cn: cn, id: i, seed: rc.seed*1_000_003 + int64(round)*serveConns + int64(i),
			barrier: barrier, start: &start, lats: lats[i]}
		if tr != nil {
			clients[i].trace = &connTrace{buf: leafBuf{spans: make([]span, 0, serveRequests)}, parent: parent, epoch: tr.epoch,
				ids: [3]opID{tr.op("server", "set"), tr.op("server", "get"), tr.op("server", "commit")}}
		}
	}
	out.setupNs = int64(time.Since(s0))

	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run()
		}()
	}
	start = time.Now()
	close(barrier)
	wg.Wait()
	for i, c := range clients {
		c.cn.close()
		lats[i] = c.lats
		out.wallNs = max(out.wallNs, c.endNs)
		out.errs.merge(c.errs)
		if c.trace != nil {
			tr.merge(&c.trace.buf)
		}
	}
	out.dev, out.qos, err = r.stop()
	return out, err
}

func serveLeg(rc *runCtx, res *workloadResult, share bool, frac float64, parent int32) (*legResult, error) {
	rounds := rc.ops(serveRoundsPerSecond, frac, 2)
	tr := rc.tr

	// One untimed round: the listener, the loopback path and the runtime's
	// pools are warm before the first measured request.
	wph := tr.open(parent, "harness", phWarmup, 0)
	warm := *rc
	warm.tr = nil
	if _, err := serveRoundRun(&warm, share, -1, make([][]int64, serveConns), noSpan); err != nil {
		return nil, err
	}
	tr.close(wph, 0)

	lats := make([][]int64, serveConns)
	for i := range lats {
		lats[i] = make([]int64, 0, rounds*serveRequests)
	}
	ph := tr.open(parent, "harness", phMeasure, 0)
	runtime.GC()
	host0 := readHost()
	var (
		wallNs, setupNs int64
		errs            errTally
		chunks          []chunk
		newMs           []float64
		devs            []devCounters
		gate            qosCounters
		perReq          []float64 // billed virtual device service per request in ms, by round
	)
	for round := 0; round < rounds; round++ {
		o, err := serveRoundRun(rc, share, round, lats, ph)
		if err != nil {
			return nil, err
		}
		wallNs += o.wallNs
		setupNs += o.setupNs
		errs.merge(o.errs)
		chunks = append(chunks, chunk{o.wallNs, serveConns * serveRequests})
		newMs = append(newMs, float64(o.newNs)/1e6)
		devs = append(devs, o.dev)
		gate.add(o.qos)
		perReq = append(perReq, float64(o.qos.billedNs)/(serveConns*serveRequests)/1e6)
	}
	host1 := readHost()
	tr.close(ph, 0)

	l := newLegResult()
	total := int64(rounds) * serveConns * serveRequests
	l.ops, l.wallOps = total, total
	l.setupS = float64(setupNs) / 1e9
	res.Attempted += total + int64(rounds)*serveConns*(serveVerifyKeys+1)
	if errs.n > 0 {
		res.fail(errs.n, "serve-tenants: %d requests failed or disagreed with the model, first: %v", errs.n, errs.err)
	}
	l.wallS = float64(wallNs) / 1e9
	dev := poolDevCounters(devs)
	// Connections are real goroutines, each with a virtual clock of its
	// own that drifts against the other's, so virtual queueing here depends
	// on how the Go scheduler interleaved them. What does not is the
	// virtual service time the drive billed each tenant (qos): the window
	// is the sum of the bills, so virt_ops_per_s is requests per virtual
	// second of device service, and the latency percentiles are that
	// service per request, taken over rounds.
	l.virtS = float64(gate.billedNs) / virtSecond
	slices.Sort(perReq)
	l.virtP50ms, l.virtP99ms = percentile(perReq, 50), percentile(perReq, 99)
	l.hostWrites, l.nandPrograms = dev.hostWrites, dev.programs

	all := slices.Concat(lats...)
	slices.Sort(all)
	l.wallP50us, l.wallP99us = float64(percentile(all, 50))/1e3, float64(percentile(all, 99))/1e3
	_, _, l.fifths = chunkStats(chunks)
	l.samples["request round trips"] = len(all)
	l.samples["rounds"] = rounds

	hostMetrics(l.layer, host0, host1, total)
	deviceMetrics(l.layer, dev, total, int64(dev.cmdLatNs/serveConns))
	qosMetrics(l.layer, gate, total)
	l.counts = map[string]float64{"requests": float64(total), "admits": float64(gate.admits),
		"host_writes": float64(dev.hostWrites), "host_reads": float64(dev.hostReads)}
	if tr != nil {
		s := tr.samples()
		serverMetrics(l.layer, s, newMs)
		for _, cmd := range []string{"set", "get", "commit"} {
			if o := s["server."+cmd]; o != nil {
				l.counts[cmd] = float64(len(o.wall))
				l.counts[cmd+"_mean_ns"] = meanInt64(o.wall)
			}
		}
	}
	return l, nil
}

// serveAttribution prices requests by their mean round trip, halved
// because two connections wait in parallel, then what of that the probes
// explain: the protocol and loopback floor, the admission gate, and the
// drive under contention.
func serveAttribution(l *legResult, p metricSet) []attribution {
	c := l.counts
	var rows []attribution
	for _, cmd := range []string{"set", "get", "commit"} {
		rows = append(rows, row("server "+cmd+" (mean RTT / 2 conns)", "", c[cmd], c[cmd+"_mean_ns"]/serveConns))
	}
	return append(rows,
		row("parse + loopback floor (nil GET / 2)", "all requests", c["requests"], p["server.nil_get_wall_p50_us"]*1e3/serveConns),
		row("qos Admit + Done", "all requests", c["admits"], p["qos.admit_done_wall_ns"]),
		row("ssd.WritePage, two submitters", "all requests", c["host_writes"], p["ssd.write_wall_ns_2g"]),
		row("ssd.ReadPage", "all requests", c["host_reads"], p["ssd.read_wall_ns"]),
	)
}
