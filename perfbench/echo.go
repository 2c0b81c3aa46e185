package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/serve"
)

// The echo probe: the benchmark's own HTTP server, started from this
// binary on the daemon's CPU, answers every rank request with one reply
// the daemon gave earlier. The closed loops' clients take turns between
// the daemon and the echo server (runClosed), on the same CPU: an echo
// round trip costs the generator and the loopback what a rank round
// trip does, minus the daemon's work. The shared machine runs the same
// code up to twice as fast or slow for seconds to minutes at a time, and
// the echo's rate in the next half second tells the benchmark how fast
// the machine was: the gated figures are the daemon's over the echo's. The echo server is fixed code, so a change to the daemon moves
// only the daemon's side of the ratio.

// serveEcho runs the echo server on addr until SIGTERM, answering
// GET /v1/healthz with 200 and every other request with reply.
func serveEcho(addr, replyPath string) error {
	reply, err := os.ReadFile(replyPath)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("{}"))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(reply)
	})
	srv := &http.Server{Addr: addr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// echoProbe is a running echo server and the closed-loop operation
// that probes it.
type echoProbe struct {
	p   *proc
	url string
	req serve.RankRequest
}

// startEcho asks the daemon at url for one rank reply and starts an
// echo server that answers with it.
func (r *run) startEcho(clients []*http.Client, url string, pages int) (*echoProbe, error) {
	req := r.in.rankReq(streamProbe, 0)
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	reply, _, err := post(clients[0], url+"/v1/rank", body)
	if err != nil {
		return nil, fmt.Errorf("echo reply: %v", err)
	}
	replyPath := filepath.Join(r.work, "echo-reply.json")
	if err := os.WriteFile(replyPath, reply, 0o644); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p, err := startProc(filepath.Join(r.work, "echo.log"), exe, "-echo", addr, "-echo-reply", replyPath)
	if err != nil {
		return nil, err
	}
	e := &echoProbe{p: p, url: "http://" + addr, req: req}
	if _, err := p.waitHealthy(e.url, 10*time.Second); err != nil {
		p.kill()
		return nil, err
	}
	// The reply must pass the same output check as the daemon's.
	if _, err := rank(clients[0], e.url, req, pages); err != nil {
		p.kill()
		return nil, fmt.Errorf("echo: %v", err)
	}
	return e, nil
}

// op is one probe round trip on client c, checked like a rank reply.
func (e *echoProbe) op(clients []*http.Client, pages int) func(c, i int) (int, bool) {
	return func(c, _ int) (int, bool) {
		_, err := rank(clients[c], e.url, e.req, pages)
		return 1, err == nil
	}
}
