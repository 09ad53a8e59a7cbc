// Command deadmem detects dead data members in MC++ source files using the
// algorithm of Sweeney & Tip (PLDI 1998).
//
// Usage:
//
//	deadmem [flags] file.mcc [more.mcc ...]
//
// Exit status is 0 on success (even when dead members are found), 1 on
// compilation errors, degraded runs (a pipeline stage crashed and was
// contained), timeouts, and internal errors, 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"deadmembers"
	"deadmembers/internal/api"
	"deadmembers/internal/buildinfo"
	"deadmembers/internal/client"
	"deadmembers/internal/textreport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "deadmem: internal error: %v\n", r)
			code = 1
		}
	}()
	fs := flag.NewFlagSet("deadmem", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		timeout        = fs.Duration("timeout", 0, "abort the run after this duration (e.g. 30s; 0 = no limit)")
		callgraphMode  = fs.String("callgraph", "rta", "call graph construction: rta, cha, or all")
		sizeofPolicy   = fs.String("sizeof", "ignore", "sizeof policy: ignore (paper setting) or conservative")
		noDeleteRule   = fs.Bool("no-delete-rule", false, "disable the delete/free special case")
		trustDowncasts = fs.Bool("trust-downcasts", false, "treat all downcasts as verified safe")
		writesAreUses  = fs.Bool("writes-are-uses", false, "ablation: treat every write as a use (paper §2 argues against this)")
		libraries      = fs.String("library", "", "comma-separated class names treated as library classes")
		verbose        = fs.Bool("v", false, "also list live members with the reason they are live")
		stageTimings   = fs.Bool("verbose", false, "print per-stage wall-clock timings of the engine pipeline")
		parallel       = fs.Int("parallel", 0, "worker count for the parse and liveness stages (0 = all cores, 1 = sequential)")
		perClass       = fs.Bool("classes", false, "print a per-class breakdown (IDE-feedback view)")
		unreachable    = fs.Bool("unreachable", false, "also list unreachable functions")
		serverURL      = fs.String("server", "", "deadmemd base URL (e.g. http://127.0.0.1:8100): run the analysis remotely; output is byte-identical to a local run")
		retries        = fs.Int("retries", 0, "max attempts per remote call, with backoff (0 = client default; needs -server)")
		showVersion    = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, buildinfo.Line("deadmem"))
		return 0
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: deadmem [flags] file.mcc ...")
		fs.PrintDefaults()
		return 2
	}

	opts := deadmembers.Options{
		NoDeleteSpecialCase: *noDeleteRule,
		TrustDowncasts:      *trustDowncasts,
		WritesAreUses:       *writesAreUses,
	}
	switch strings.ToLower(*callgraphMode) {
	case "rta":
		opts.CallGraph = deadmembers.CallGraphRTA
	case "cha":
		opts.CallGraph = deadmembers.CallGraphCHA
	case "all":
		opts.CallGraph = deadmembers.CallGraphALL
	default:
		fmt.Fprintf(stderr, "deadmem: unknown -callgraph %q\n", *callgraphMode)
		return 2
	}
	switch strings.ToLower(*sizeofPolicy) {
	case "ignore":
		opts.Sizeof = deadmembers.SizeofIgnore
	case "conservative":
		opts.Sizeof = deadmembers.SizeofConservative
	default:
		fmt.Fprintf(stderr, "deadmem: unknown -sizeof %q\n", *sizeofPolicy)
		return 2
	}
	if *libraries != "" {
		opts.LibraryClasses = strings.Split(*libraries, ",")
	}
	var sources []deadmembers.Source
	for _, path := range fs.Args() {
		text, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "deadmem: %v\n", err)
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
		req := &api.Request{
			Options: api.Options{
				CallGraph:      strings.ToLower(*callgraphMode),
				Sizeof:         strings.ToLower(*sizeofPolicy),
				NoDeleteRule:   *noDeleteRule,
				TrustDowncasts: *trustDowncasts,
				WritesAreUses:  *writesAreUses,
				Library:        opts.LibraryClasses,
			},
			Verbose:     *verbose,
			Classes:     *perClass,
			Unreachable: *unreachable,
		}
		for _, s := range sources {
			req.Sources = append(req.Sources, api.Source{Name: s.Name, Text: s.Text})
		}
		cl := client.New(client.Config{BaseURL: *serverURL, MaxAttempts: *retries})
		res, err := cl.Analyze(ctx, req)
		if err != nil {
			fmt.Fprintf(stderr, "deadmem: %v\n", err)
			return 1
		}
		if _, err := stdout.Write(res.Body); err != nil {
			fmt.Fprintf(stderr, "deadmem: %v\n", err)
			return 1
		}
		if res.Degraded {
			fmt.Fprintln(stderr, "deadmem: degraded: the server contained a pipeline fault; results may be incomplete")
			return 1
		}
		return 0
	}

	comp, err := deadmembers.CompileWithContext(ctx, deadmembers.CompileConfig{Workers: *parallel}, sources...)
	if err != nil {
		fmt.Fprintf(stderr, "deadmem: %v\n", err)
		return 1
	}
	res, timings, err := comp.AnalyzeTimedContext(ctx, opts)
	if err != nil {
		fmt.Fprintf(stderr, "deadmem: %v\n", err)
		return 1
	}
	degraded := comp.Degraded() || res.Degraded()
	for _, f := range comp.Failures() {
		fmt.Fprintf(stderr, "deadmem: degraded: %v\n", f)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(stderr, "deadmem: degraded: %v\n", f)
	}

	if err := textreport.Write(stdout, res, textreport.Options{
		Verbose:     *verbose,
		PerClass:    *perClass,
		Unreachable: *unreachable,
		Degraded:    degraded,
	}); err != nil {
		fmt.Fprintf(stderr, "deadmem: %v\n", err)
		return 1
	}

	if *stageTimings {
		fmt.Fprintf(stdout, "\nengine stage timings:\n")
		fmt.Fprintf(stdout, "  parse      %12v\n", timings.Parse)
		fmt.Fprintf(stdout, "  sema       %12v\n", timings.Sema)
		fmt.Fprintf(stdout, "  callgraph  %12v\n", timings.CallGraph)
		fmt.Fprintf(stdout, "  liveness   %12v\n", timings.Liveness)
		fmt.Fprintf(stdout, "  total      %12v\n", timings.Total())
	}
	if degraded {
		return 1
	}
	return 0
}
