// Command deadstrip applies the space optimization the paper motivates:
// it analyzes MC++ sources, removes the guaranteed-dead data members (and
// unreachable functions) whose removal is provably behaviour-preserving,
// and writes the transformed program to stdout.
//
// Usage:
//
//	deadstrip [flags] file.mcc [more.mcc ...] > stripped.mcc
//
// Diagnostics (what was removed, what was kept and why) go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"deadmembers"
	"deadmembers/internal/api"
	"deadmembers/internal/buildinfo"
	"deadmembers/internal/client"
	"deadmembers/internal/strip"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "deadstrip: internal error: %v\n", r)
			code = 1
		}
	}()
	fs := flag.NewFlagSet("deadstrip", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		timeout         = fs.Duration("timeout", 0, "abort the run after this duration (e.g. 30s; 0 = no limit)")
		keepUnreachable = fs.Bool("keep-unreachable", false, "do not remove unreachable functions")
		verify          = fs.Bool("verify", true, "run original and stripped programs and compare behaviour (local mode only)")
		parallel        = fs.Int("parallel", 0, "worker count for the parse and liveness stages (0 = all cores, 1 = sequential)")
		serverURL       = fs.String("server", "", "deadmemd base URL (e.g. http://127.0.0.1:8100): strip remotely; output is byte-identical to a local run")
		retries         = fs.Int("retries", 0, "max attempts per remote call, with backoff (0 = client default; needs -server)")
		showVersion     = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, buildinfo.Line("deadstrip"))
		return 0
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: deadstrip [flags] file.mcc ...")
		fs.PrintDefaults()
		return 2
	}

	var sources []deadmembers.Source
	for _, path := range fs.Args() {
		text, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "deadstrip: %v\n", err)
			return 1
		}
		sources = append(sources, deadmembers.Source{Name: path, Text: string(text)})
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *serverURL != "" {
		// The server refuses to strip from a degraded compilation (422),
		// so a successful response is always full-fidelity; behavioural
		// verification (-verify) needs the interpreter and stays local.
		req := &api.Request{KeepUnreachable: *keepUnreachable}
		for _, s := range sources {
			req.Sources = append(req.Sources, api.Source{Name: s.Name, Text: s.Text})
		}
		cl := client.New(client.Config{BaseURL: *serverURL, MaxAttempts: *retries})
		res, err := cl.Strip(ctx, req)
		if err != nil {
			fmt.Fprintf(stderr, "deadstrip: %v\n", err)
			return 1
		}
		if _, err := stdout.Write(res.Body); err != nil {
			fmt.Fprintf(stderr, "deadstrip: %v\n", err)
			return 1
		}
		return 0
	}

	// Compile once; the same compilation serves the verification run of
	// the original program and the strip transform (which consumes it).
	cfg := deadmembers.CompileConfig{Workers: *parallel}
	comp, err := deadmembers.CompileWithContext(ctx, cfg, sources...)
	if err != nil {
		fmt.Fprintf(stderr, "deadstrip: %v\n", err)
		return 1
	}
	if comp.Degraded() {
		// A degraded analysis could misclassify members: never emit a
		// transform derived from salvaged results.
		for _, f := range comp.Failures() {
			fmt.Fprintf(stderr, "deadstrip: degraded: %v\n", f)
		}
		fmt.Fprintf(stderr, "deadstrip: refusing to strip from a degraded compilation\n")
		return 1
	}

	var before *deadmembers.ExecResult
	if *verify {
		// Run the original before stripping: the transform rewrites the
		// compiled syntax trees in place.
		before, err = comp.RunContext(ctx)
		if err != nil {
			fmt.Fprintf(stderr, "deadstrip: original does not run: %v\n", err)
			return 1
		}
	}

	out := comp.Strip(deadmembers.Options{}, deadmembers.StripOptions{
		KeepUnreachable: *keepUnreachable,
	})

	for _, m := range out.RemovedMembers {
		fmt.Fprintf(stderr, "removed member   %s\n", m)
	}
	for _, f := range out.RemovedFunctions {
		fmt.Fprintf(stderr, "removed function %s\n", f)
	}
	for m, why := range out.KeptMembers {
		fmt.Fprintf(stderr, "kept dead member %s: %s\n", m, why)
	}

	if *verify {
		stripped, err := deadmembers.CompileWithContext(ctx, cfg, out.Sources...)
		if err != nil {
			fmt.Fprintf(stderr, "deadstrip: stripped program does not compile: %v\n", err)
			return 1
		}
		after, err := stripped.RunContext(ctx)
		if err != nil {
			fmt.Fprintf(stderr, "deadstrip: stripped program does not run: %v\n", err)
			return 1
		}
		if before.Output != after.Output || before.ExitCode != after.ExitCode {
			fmt.Fprintf(stderr, "deadstrip: BEHAVIOUR CHANGED — refusing to emit\n")
			return 1
		}
		fmt.Fprintf(stderr, "verified: identical behaviour (exit %d)\n", after.ExitCode)
	}

	if err := strip.WriteSources(stdout, out.Sources); err != nil {
		fmt.Fprintf(stderr, "deadstrip: %v\n", err)
		return 1
	}
	return 0
}
