package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"deadmembers/internal/server"
)

// daemonRequest is one request of a client's cycle over a program.
type daemonRequest struct {
	kind string
	path string
	body func(ref *layerOutputs) []byte
}

// daemonCycle is what a client sends for each fresh source variant: a
// compile, a session-cache hit, a compile outside the cache, and a
// persist-store hit.
var daemonCycle = []daemonRequest{
	{kind: "analyze", path: "/v1/analyze", body: func(r *layerOutputs) []byte { return r.report }},
	{kind: "lint", path: "/v1/lint?format=json", body: func(r *layerOutputs) []byte { return r.findings }},
	{kind: "strip", path: "/v1/strip", body: func(r *layerOutputs) []byte { return r.stripped }},
	{kind: "analyze-persisted", path: "/v1/analyze", body: func(r *layerOutputs) []byte { return r.report }},
}

// daemon is an in-process deadmemd with default configuration and a
// persist directory of its own, served on a loopback listener.
type daemon struct {
	persistDir string
	hs         *http.Server
	served     chan error
	base       string
	client     *http.Client
}

func startDaemon(workDir string) (*daemon, error) {
	dir, err := os.MkdirTemp(workDir, "persist-")
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	srv, err := server.New(server.Config{PersistDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("daemon: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("daemon: %w", err)
	}
	d := &daemon{
		persistDir: dir,
		hs:         &http.Server{Handler: srv.Handler()},
		served:     make(chan error, 1),
		base:       "http://" + ln.Addr().String(),
		client:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the server, waits for its serve loop to return, and
// removes the persist directory.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serveErr := <-d.served; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	d.client.CloseIdleConnections()
	if rmErr := os.RemoveAll(d.persistDir); err == nil {
		err = rmErr
	}
	return err
}

// request sends one request of a cycle with the given source variant of
// p and checks the body against the in-process render of p.
func (d *daemon) request(req daemonRequest, p program, text string, ref *layerOutputs) (time.Duration, error) {
	sep := "?"
	if strings.Contains(req.path, "?") {
		sep = "&"
	}
	u := d.base + req.path + sep + "file=" + url.QueryEscape(p.src.Name)
	start := time.Now()
	resp, err := d.client.Post(u, "text/plain", strings.NewReader(text))
	if err != nil {
		return time.Since(start), fmt.Errorf("%s %s: %w", req.kind, p.name(), err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	switch {
	case err != nil:
		return lat, fmt.Errorf("%s %s: %w", req.kind, p.name(), err)
	case resp.StatusCode != http.StatusOK:
		return lat, fmt.Errorf("%s %s: status %d: %s", req.kind, p.name(), resp.StatusCode, bytes.TrimSpace(body))
	case !bytes.Equal(body, req.body(ref)):
		return lat, fmt.Errorf("%s %s: body differs from the in-process render", req.kind, p.name())
	}
	return lat, nil
}

// counters reads the daemon's /metrics exposition into a map from
// unlabelled metric name to value.
func (d *daemon) counters() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
			out[fields[0]] = v
		}
	}
	return out, sc.Err()
}
