// Package server implements the shareserver front-end: a TCP server that
// exposes per-tenant key-value stores (internal/couch) living side by
// side in one simulated file system on one SHARE-capable SSD. It is the
// multi-tenant serving stack of the paper's deployment picture — many
// databases on one flash device — made concrete: every connection runs
// as its own solo task, every tenant gets its own database file, and the
// device queue is guarded by a fair-share admission gate (internal/qos)
// so one tenant's load cannot starve the rest.
//
// The wire protocol is line-based and minimal:
//
//	USE <tenant>          select (and lazily create) the tenant database
//	SET <key> <value>     upsert; value runs to end of line
//	GET <key>             -> VAL <value> | NIL
//	DEL <key>             -> OK | NIL
//	COMMIT                flush the tenant's batch durably
//	STATS                 one-line server and tenant counters
//	QUIT                  close the connection
//
// Responses are OK, VAL <bytes>, NIL, or ERR <message>. A degraded
// store — the device exhausted its spare blocks and fell back to
// read-only serving — answers mutations with the typed form
// "ERR DEGRADED <message>", so clients can tell a durable read-only
// condition (retrying is pointless, reads still work) from a transient
// fault, and STATS reports it as a degraded=0|1 field. Keys must not
// contain spaces; keys and values must not contain newlines.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"share/internal/couch"
	"share/internal/fsim"
	"share/internal/ftl"
	"share/internal/nand"
	"share/internal/qos"
	"share/internal/sim"
	"share/internal/ssd"
)

// Config sizes the serving stack.
type Config struct {
	Blocks       int             // device blocks (0: 512)
	Channels     int             // NAND channels (0: 4)
	PageSize     int             // device page size (0: 4096)
	JournalPages int             // fsim journal pages (0: 64)
	Quantum      sim.Duration    // fair-share quantum (0: qos.DefaultQuantum)
	BatchSize    int             // couch sets per durable batch (0: 8)
	ShareMode    bool            // use SHARE remapping for commits
	SpareBlocks  int             // block-retirement budget override (0: derived)
	Fault        *nand.FaultPlan // optional NAND fault injection
}

func (c *Config) setDefaults() {
	if c.Blocks == 0 {
		c.Blocks = 512
	}
	if c.Channels == 0 {
		c.Channels = 4
	}
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.JournalPages == 0 {
		c.JournalPages = 64
	}
	if c.BatchSize == 0 {
		c.BatchSize = 8
	}
}

// Server owns the device, the file system, and one couch store per
// tenant. Connections are served concurrently; per-tenant stores are
// created lazily on first USE.
type Server struct {
	cfg Config
	dev *ssd.Device
	fs  *fsim.FS
	adm *qos.FairShare

	mu     sync.Mutex // guards stores
	stores map[string]*couch.Store

	ln      net.Listener
	connSeq atomic.Int64
	closed  atomic.Bool
	wg      sync.WaitGroup
}

// New builds the serving stack: a multi-channel device with fair-share
// admission and a formatted file system.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	dcfg := ssd.DefaultConfig(cfg.Blocks)
	dcfg.Geometry.PageSize = cfg.PageSize
	dcfg.Geometry.Channels = cfg.Channels
	dcfg.FTL.SpareBlocks = cfg.SpareBlocks
	dcfg.Fault = cfg.Fault
	dev, err := ssd.New("shareserver", dcfg)
	if err != nil {
		return nil, err
	}
	adm := qos.NewFairShare(cfg.Quantum)
	dev.SetAdmission(adm)
	task := sim.NewSoloTask("format")
	fs, err := fsim.Format(task, dev, cfg.JournalPages)
	if err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, dev: dev, fs: fs, adm: adm, stores: make(map[string]*couch.Store)}, nil
}

// Device exposes the underlying SSD, e.g. for telemetry.
func (s *Server) Device() *ssd.Device { return s.dev }

// Admission exposes the fair-share controller.
func (s *Server) Admission() *qos.FairShare { return s.adm }

// store returns the tenant's database, opening (and on first use
// creating) it under the server lock. The couch store itself is latched,
// so multiple connections of one tenant share it safely.
func (s *Server) store(t *sim.Task, tenant string) (*couch.Store, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.stores[tenant]; ok {
		return st, nil
	}
	st, err := couch.Open(t, s.fs, couch.Config{
		Name:      tenant + ".couch",
		BatchSize: s.cfg.BatchSize,
		ShareMode: s.cfg.ShareMode,
	})
	if err != nil {
		return nil, err
	}
	s.stores[tenant] = st
	return st, nil
}

// Listen binds addr (e.g. "127.0.0.1:0") without accepting yet, so
// callers learn the port before starting clients.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return ln.Addr(), nil
}

// Serve accepts connections until Close. Each connection is handled on
// its own goroutine with its own solo task.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting and waits for in-flight connections to drain.
func (s *Server) Close() error {
	s.closed.Store(true)
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

// errLine renders err as a wire error. Read-only degradation — the raw
// device error or a store's latched sentinel, which wraps it — gets the
// typed "ERR DEGRADED" form; everything else stays a plain ERR.
func errLine(err error) string {
	if errors.Is(err, ftl.ErrReadOnly) {
		return "ERR DEGRADED " + err.Error()
	}
	return "ERR " + err.Error()
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	id := s.connSeq.Add(1)
	task := sim.NewSoloTask(fmt.Sprintf("conn%d", id))
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	var st *couch.Store

	reply := func(line string) bool {
		if _, err := w.WriteString(line + "\n"); err != nil {
			return false
		}
		return w.Flush() == nil
	}
	replyVal := func(v []byte) bool {
		if _, err := w.WriteString("VAL "); err != nil {
			return false
		}
		if _, err := w.Write(v); err != nil {
			return false
		}
		if err := w.WriteByte('\n'); err != nil {
			return false
		}
		return w.Flush() == nil
	}

	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return
		}
		line = bytes.TrimRight(line, "\r\n")
		cmd, rest := splitWord(line)
		switch string(cmd) {
		case "USE":
			tenant := string(rest)
			if tenant == "" {
				if !reply("ERR missing tenant") {
					return
				}
				continue
			}
			task.SetTenant(tenant)
			st, err = s.store(task, tenant)
			if err != nil {
				st = nil
				if !reply(errLine(err)) {
					return
				}
				continue
			}
			if !reply("OK") {
				return
			}
		case "SET":
			key, val := splitWord(rest)
			if st == nil || len(key) == 0 {
				if !reply("ERR need USE and key") {
					return
				}
				continue
			}
			if err := st.Set(task, key, val); err != nil {
				if !reply(errLine(err)) {
					return
				}
				continue
			}
			if !reply("OK") {
				return
			}
		case "GET":
			if st == nil || len(rest) == 0 {
				if !reply("ERR need USE and key") {
					return
				}
				continue
			}
			v, ok, err := st.Get(task, rest)
			switch {
			case err != nil:
				if !reply(errLine(err)) {
					return
				}
			case !ok:
				if !reply("NIL") {
					return
				}
			default:
				if !replyVal(v) {
					return
				}
			}
		case "DEL":
			if st == nil || len(rest) == 0 {
				if !reply("ERR need USE and key") {
					return
				}
				continue
			}
			found, err := st.Delete(task, rest)
			switch {
			case err != nil:
				if !reply(errLine(err)) {
					return
				}
			case !found:
				if !reply("NIL") {
					return
				}
			default:
				if !reply("OK") {
					return
				}
			}
		case "COMMIT":
			if st == nil {
				if !reply("ERR need USE") {
					return
				}
				continue
			}
			if err := st.Commit(task); err != nil {
				if !reply(errLine(err)) {
					return
				}
				continue
			}
			if !reply("OK") {
				return
			}
		case "STATS":
			if !reply(s.statsLine(task, st)) {
				return
			}
		case "QUIT":
			reply("OK")
			return
		case "":
			// blank line: ignore
		default:
			if !reply("ERR unknown command") {
				return
			}
		}
	}
}

// statsLine renders device and admission counters, plus the selected
// tenant's store counters when one is in use. degraded reflects the
// read-only condition a client would hit on its next mutation: the
// device out of spare blocks, or this tenant's store already latched.
func (s *Server) statsLine(t *sim.Task, st *couch.Store) string {
	dst := s.dev.Stats()
	ast := s.adm.Stats(t)
	degraded := 0
	if s.dev.ReadOnly() || (st != nil && st.Degraded()) {
		degraded = 1
	}
	line := fmt.Sprintf("OK reads=%d writes=%d admits=%d throttles=%d degraded=%d",
		dst.FTL.HostReads, dst.FTL.HostWrites, ast.Admits, ast.Throttles, degraded)
	if st != nil {
		cst := st.Stats()
		line += fmt.Sprintf(" sets=%d gets=%d commits=%d", cst.Sets, cst.Gets, cst.Commits)
	}
	return line
}

// splitWord splits b at the first space into (word, rest); rest is empty
// when no space is present.
func splitWord(b []byte) ([]byte, []byte) {
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		return b[:i], b[i+1:]
	}
	return b, nil
}
