// Package stress is a randomized multi-tenant stress harness for the
// serving stack: N workers spread over M tenants hammer one shareserver
// (internal/server) over real TCP connections with a seeded mix of sets,
// gets, deletes and commits, tracking every key's expected value and
// counting cycles and errors. Each worker owns a disjoint key range, so
// verification is exact even while other workers churn the same tenant's
// database. The harness is the repo's liveness-and-integrity soak for
// concurrent serving — run it under the race detector (TestStressServer
// in make check) to chase both data races and lost or phantom writes.
package stress

import (
	"fmt"
	"math/rand"
	"strings"

	"share/internal/server"
)

// Config shapes one stress run.
type Config struct {
	Workers int   // concurrent connections (0: 8)
	Tenants int   // tenants the workers are spread across (0: 2)
	Cycles  int   // operations per worker (0: 200)
	Keys    int   // distinct keys per worker (0: 32)
	Seed    int64 // base seed; worker w uses Seed+w
	Server  server.Config
}

func (c *Config) setDefaults() {
	if c.Workers == 0 {
		c.Workers = 8
	}
	if c.Tenants == 0 {
		c.Tenants = 2
	}
	if c.Cycles == 0 {
		c.Cycles = 200
	}
	if c.Keys == 0 {
		c.Keys = 32
	}
}

// Report accumulates per-worker accounting; Merge folds workers together.
// Every failed operation lands in exactly one error counter.
type Report struct {
	Cycles          int64 // operations completed
	Retries         int64 // transport errors met by the retrying client (server.Client)
	TransportErrors int64 // commands whose transport never came back within the retry budget
	DegradedErrors  int64 // mutations refused with ERR DEGRADED (read-only device)
	WriteErrors     int64 // SET/DEL/COMMIT refused with any other reply
	ReadErrors      int64 // GET answered ERR
	DataErrors      int64 // wrong value or wrong presence — integrity violation
}

// Merge adds o into r.
func (r *Report) Merge(o Report) {
	r.Cycles += o.Cycles
	r.Retries += o.Retries
	r.TransportErrors += o.TransportErrors
	r.DegradedErrors += o.DegradedErrors
	r.WriteErrors += o.WriteErrors
	r.ReadErrors += o.ReadErrors
	r.DataErrors += o.DataErrors
}

// Failed reports whether the run saw any error at all. Recovered
// retries are not failures: the command went through.
func (r *Report) Failed() bool {
	return r.TransportErrors+r.DegradedErrors+r.WriteErrors+r.ReadErrors+r.DataErrors > 0
}

func (r Report) String() string {
	return fmt.Sprintf("cycles=%d retries=%d transportErrs=%d degradedErrs=%d writeErrs=%d readErrs=%d dataErrs=%d",
		r.Cycles, r.Retries, r.TransportErrors, r.DegradedErrors, r.WriteErrors, r.ReadErrors, r.DataErrors)
}

// countFailure classifies one round trip of a write (USE/SET/DEL/COMMIT) or a
// read (GET) and counts a failure in its own counter.
func (r *Report) countFailure(resp string, err error, write bool) bool {
	switch {
	case err != nil:
		r.TransportErrors++
	case strings.HasPrefix(resp, "ERR DEGRADED"):
		r.DegradedErrors++
	case strings.HasPrefix(resp, "ERR") && write:
		r.WriteErrors++
	case strings.HasPrefix(resp, "ERR"):
		r.ReadErrors++
	default:
		return false
	}
	return true
}

// Run starts a server, drives it with Config.Workers concurrent workers,
// and returns the merged report. The server is torn down before Run
// returns. The only error returned is a setup failure; workload failures
// land in the report.
func Run(cfg Config) (Report, error) {
	cfg.setDefaults()
	s, err := server.New(cfg.Server)
	if err != nil {
		return Report{}, err
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		return Report{}, err
	}
	go s.Serve()
	defer s.Close()

	reports := make(chan Report, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go func(w int) {
			reports <- worker(addr.String(), w, cfg)
		}(w)
	}
	var total Report
	for w := 0; w < cfg.Workers; w++ {
		total.Merge(<-reports)
	}
	return total, nil
}

// worker runs one connection's op mix: 50% set, 30% verified get, 10%
// delete, 10% commit. It mirrors every mutation in a local model keyed by
// its own disjoint key range, so a get either matches the model exactly
// or counts a DataError.
func worker(addr string, w int, cfg Config) (rep Report) {
	cl := server.NewClient(addr, cfg.Seed+int64(w)+1<<32)
	defer func() {
		rep.Retries = int64(cl.Retries())
		cl.Close()
	}()

	// mutate holds a reply whose only good form is OK against that.
	mutate := func(resp string, err error) bool {
		if rep.countFailure(resp, err, true) {
			return false
		}
		if resp != "OK" {
			rep.WriteErrors++
		}
		return resp == "OK"
	}
	if !mutate(cl.Use(fmt.Sprintf("tenant%d", w%cfg.Tenants))) {
		return rep
	}

	rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
	model := make(map[string]string, cfg.Keys) // key -> value; absent = deleted/never set
	key := func(i int) string { return fmt.Sprintf("w%dk%d", w, i) }
	// get reads k and holds the reply against the model.
	get := func(k string) bool {
		resp, _, err := cl.Do("GET " + k)
		if rep.countFailure(resp, err, false) {
			return false
		}
		want, exists := model[k]
		if exists != (resp != "NIL") || (exists && resp != "VAL "+want) {
			rep.DataErrors++
			return false
		}
		return true
	}

	for c := 0; c < cfg.Cycles; c++ {
		k := key(rng.Intn(cfg.Keys))
		switch op := rng.Intn(10); {
		case op < 5: // set
			v := fmt.Sprintf("v%d-%d", w, c)
			resp, _, err := cl.Do(fmt.Sprintf("SET %s %s", k, v))
			if !mutate(resp, err) {
				continue
			}
			model[k] = v
		case op < 8: // get + verify
			if !get(k) {
				continue
			}
		case op < 9: // delete
			resp, retried, err := cl.Do("DEL " + k)
			if rep.countFailure(resp, err, true) {
				continue
			}
			_, exists := model[k]
			// A replayed DEL may answer NIL because the first attempt
			// landed before the transport died; either way the key is gone.
			if !retried && (resp == "OK") != exists {
				rep.DataErrors++
				continue
			}
			delete(model, k)
		default: // commit
			resp, _, err := cl.Do("COMMIT")
			if !mutate(resp, err) {
				continue
			}
		}
		rep.Cycles++
	}

	// Final sweep: every key must match the model exactly.
	for i := 0; i < cfg.Keys; i++ {
		get(key(i))
	}
	cl.Do("QUIT")
	return rep
}
