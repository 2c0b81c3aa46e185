package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
)

// newClient returns an HTTP client over its own keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// errAbandoned marks an open-loop operation the generator never sent
// because the service had fallen too far behind its schedule.
var errAbandoned = errors.New("abandoned: the service fell behind the schedule")

// errRefused marks a 429 or 503: the service declined the request and
// may say when to retry.
var errRefused = errors.New("refused")

// post sends one JSON POST and returns the reply body. A non-2xx status
// is an error; 429 and 503 wrap errRefused and carry the Retry-After
// hint.
func post(c *http.Client, url string, body []byte) ([]byte, time.Duration, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	switch {
	case resp.StatusCode/100 == 2:
		return rb, 0, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		retry := time.Second
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			retry = time.Duration(s) * time.Second
		}
		return nil, retry, fmt.Errorf("%w: %d %s", errRefused, resp.StatusCode, bytes.TrimSpace(rb))
	default:
		return nil, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(rb))
	}
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// rank sends one rank request and checks the reply: n distinct IDs, each
// an existing page in [0, pages).
func rank(c *http.Client, base string, req serve.RankRequest, pages int) (*serve.RankResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	rb, _, err := post(c, base+"/v1/rank", body)
	if err != nil {
		return nil, err
	}
	var resp serve.RankResponse
	if err := json.Unmarshal(rb, &resp); err != nil {
		return nil, fmt.Errorf("rank reply: %v", err)
	}
	if err := checkResults(resp.Results, req.N, pages); err != nil {
		return &resp, fmt.Errorf("%w: %v", errWrongOutput, err)
	}
	return &resp, nil
}

// errWrongOutput marks a reply that arrived but failed its output check.
var errWrongOutput = errors.New("wrong output")

func checkResults(items []serve.RankedItem, n, pages int) error {
	if len(items) != n {
		return fmt.Errorf("%d results, want %d", len(items), n)
	}
	seen := make(map[int]bool, n)
	for i, it := range items {
		if it.ID < 0 || it.ID >= pages {
			return fmt.Errorf("result %d: page %d does not exist", i, it.ID)
		}
		if seen[it.ID] {
			return fmt.Errorf("result %d: page %d repeated", i, it.ID)
		}
		seen[it.ID] = true
		if it.Slot != i+1 {
			return fmt.Errorf("result %d has slot %d", i, it.Slot)
		}
	}
	return nil
}

// sendFeedback posts events as one JSON batch and returns how many the
// service accepted.
func sendFeedback(c *http.Client, base string, events []serve.Event) (int, time.Duration, error) {
	body, err := json.Marshal(serve.FeedbackRequest{Events: events})
	if err != nil {
		return 0, 0, err
	}
	rb, retry, err := post(c, base+"/v1/feedback", body)
	if err != nil {
		return 0, retry, err
	}
	var fr serve.FeedbackResponse
	if err := json.Unmarshal(rb, &fr); err != nil {
		return 0, 0, fmt.Errorf("feedback reply: %v", err)
	}
	if fr.Accepted != len(events) {
		return fr.Accepted, 0, fmt.Errorf("%w: accepted %d of %d events", errWrongOutput, fr.Accepted, len(events))
	}
	return fr.Accepted, 0, nil
}

// ledger counts attempts, successes and failures per operation type,
// and the feedback the service acknowledged.
type ledger struct {
	mu       sync.Mutex
	ops      map[string]*opCounts
	errs     map[string]int // counts of the first few distinct failure messages
	wrong    []string       // output-check failures
	ackImps  int64
	ackClks  int64
	ackEvent int64
}

func newLedger() *ledger {
	return &ledger{ops: map[string]*opCounts{}, errs: map[string]int{}}
}

// record notes one attempt of op; err nil means it succeeded.
func (l *ledger) record(op string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.ops[op]
	if c == nil {
		c = &opCounts{}
		l.ops[op] = c
	}
	c.Sent++
	if err == nil {
		c.OK++
		return
	}
	c.Failed++
	if errors.Is(err, errWrongOutput) && len(l.wrong) < 5 {
		l.wrong = append(l.wrong, fmt.Sprintf("%s: %v", op, err))
	}
	if key := op + ": " + err.Error(); l.errs[key] > 0 || len(l.errs) < 5 {
		l.errs[key]++
	}
}

// acked credits feedback the service acknowledged.
func (l *ledger) acked(events []serve.Event) {
	var imps, clks int64
	for _, e := range events {
		imps += int64(e.Impressions)
		clks += int64(e.Clicks)
	}
	l.mu.Lock()
	l.ackImps += imps
	l.ackClks += clks
	l.ackEvent += int64(len(events))
	l.mu.Unlock()
}

func (l *ledger) ackTotals() (imps, clks, events int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ackImps, l.ackClks, l.ackEvent
}

func (l *ledger) totals() opCounts {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t opCounts
	for _, c := range l.ops {
		t.add(*c)
	}
	return t
}

// writeFeedback posts a batch closed-loop style: a refusal is recorded as
// a failed attempt, the Retry-After hint is honoured, and the batch is
// retried up to three times. It reports whether the batch was finally
// acknowledged.
func (l *ledger) writeFeedback(c *http.Client, base, op string, events []serve.Event) bool {
	for attempt := 0; attempt < 4; attempt++ {
		_, retry, err := sendFeedback(c, base, events)
		l.record(op, err)
		if err == nil {
			l.acked(events)
			return true
		}
		if !errors.Is(err, errRefused) {
			return false
		}
		time.Sleep(retry)
	}
	return false
}
