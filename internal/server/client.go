package server

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"time"
)

// Transient transport failures (connection reset, server restart) are
// retried with bounded exponential backoff instead of failing the
// caller: the connection is redialed, USE re-issued, and the in-flight
// command re-sent, up to RetryMax times per command.
const (
	RetryMax  = 3
	retryBase = 2 * time.Millisecond // doubles per attempt, plus seeded jitter
)

// Client is a retrying wire-protocol connection: one round trip at a
// time, with transparent redial + re-USE + replay on transport errors.
// Server-level ERR replies are returned to the caller — only the
// transport is retried. Not safe for concurrent use.
type Client struct {
	addr    string
	tenant  string // re-issued as USE after every redial, once set
	conn    net.Conn
	r       *bufio.Reader
	rng     *rand.Rand // backoff jitter only, so callers' op mixes stay deterministic
	retries int
}

// NewClient returns a client for the server at addr; the connection is
// dialed by the first command. jitterSeed seeds the backoff jitter.
func NewClient(addr string, jitterSeed int64) *Client {
	return &Client{addr: addr, rng: rand.New(rand.NewSource(jitterSeed))}
}

// Use selects tenant and returns the server's reply. Once that was OK,
// every later redial re-selects the tenant before replaying a command.
func (c *Client) Use(tenant string) (resp string, err error) {
	resp, _, err = c.Do("USE " + tenant)
	if err == nil && resp == "OK" {
		c.tenant = tenant
	}
	return resp, err
}

// Retries counts the transport errors met so far, recovered or not.
func (c *Client) Retries() int { return c.retries }

// Close drops the connection, if any.
func (c *Client) Close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

func (c *Client) redial() error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn, c.r = conn, bufio.NewReader(conn)
	if c.tenant == "" {
		return nil
	}
	resp, err := c.roundTrip("USE " + c.tenant)
	if err == nil && resp != "OK" {
		err = fmt.Errorf("re-USE %s: %s", c.tenant, resp)
	}
	return err
}

func (c *Client) roundTrip(line string) (string, error) {
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		return "", err
	}
	resp, err := c.r.ReadString('\n')
	return strings.TrimRight(resp, "\n"), err
}

// try makes one attempt at line, redialing first if the last attempt
// lost the connection, and drops the connection on any transport error.
func (c *Client) try(line string) (resp string, err error) {
	if c.conn == nil {
		err = c.redial()
	}
	if err == nil {
		resp, err = c.roundTrip(line)
	}
	if err != nil {
		c.Close()
		return "", err
	}
	return resp, nil
}

// Do sends one command and returns its reply line. A transport error is
// retried on a fresh connection; err is non-nil only once the retry
// budget is spent. retried reports that the reply came from a replay:
// the first attempt may or may not have been applied before the
// transport died, so callers of non-idempotent commands (DEL) must not
// hold the reply against their model.
func (c *Client) Do(line string) (resp string, retried bool, err error) {
	for attempt := 0; ; attempt++ {
		if resp, err = c.try(line); err == nil || attempt >= RetryMax {
			return resp, attempt > 0, err
		}
		c.retries++
		time.Sleep(retryBase<<attempt + time.Duration(c.rng.Int63n(int64(retryBase))))
	}
}
