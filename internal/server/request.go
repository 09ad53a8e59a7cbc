package server

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"deadmembers/internal/api"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/engine"
)

// httpError is a handler failure carrying the status code to report.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...interface{}) *httpError {
	return &httpError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

// bundle is a decoded request: the source files plus the option set,
// mirroring the corresponding CLI's flags one for one so a bundle and a
// command line describe the same run.
type bundle struct {
	sources []engine.Source
	opts    deadmember.Options

	// analyze sections (deadmem -v / -classes / -unreachable)
	verbose     bool
	classes     bool
	unreachable bool

	// lint (deadlint -format / -budget)
	format string
	budget int

	// strip (deadstrip -keep-unreachable)
	keepUnreachable bool
}

// parseRequest decodes a request in either transport (see api.FromHTTP
// for the two wire forms) and validates it into a bundle.
//
// The caller must have wrapped r.Body in http.MaxBytesReader; an
// over-limit body surfaces here as a 413.
func parseRequest(r *http.Request) (*bundle, *httpError) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, &httpError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return nil, badRequest("reading body: %v", err)
	}
	req, err := api.FromHTTP(r, body)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return bundleFromAPI(req)
}

// bundleFromAPI validates a wire request into the internal option set,
// with the same defaults as the CLIs.
func bundleFromAPI(req *api.Request) (*bundle, *httpError) {
	if len(req.Sources) == 0 {
		return nil, badRequest("no sources in request")
	}
	b := &bundle{
		verbose:         req.Verbose,
		classes:         req.Classes,
		unreachable:     req.Unreachable,
		budget:          req.Budget,
		keepUnreachable: req.KeepUnreachable,
	}
	if req.Budget < 0 {
		return nil, badRequest("invalid budget=%d", req.Budget)
	}
	seen := map[string]bool{}
	for i, s := range req.Sources {
		if s.Name == "" {
			return nil, badRequest("sources[%d]: missing name", i)
		}
		if seen[s.Name] {
			return nil, badRequest("duplicate source name %q", s.Name)
		}
		seen[s.Name] = true
		b.sources = append(b.sources, engine.Source{Name: s.Name, Text: s.Text})
	}
	// The CLIs split -library on ',' and artifactKey joins the names
	// with it, so a name containing one has no CLI equivalent and would
	// share a persisted artifact with the list it spells.
	for _, name := range req.Options.Library {
		if strings.Contains(name, ",") {
			return nil, badRequest("library name %q contains ','", name)
		}
	}
	var herr *httpError
	if b.opts, herr = decodeOptions(req.Options); herr != nil {
		return nil, herr
	}
	if b.format, herr = decodeFormat(req.Format); herr != nil {
		return nil, herr
	}
	return b, nil
}

// decodeOptions maps the wire option names (identical to the CLI flag
// values) onto deadmember.Options, with the same defaults as the CLIs.
func decodeOptions(o api.Options) (deadmember.Options, *httpError) {
	opts := deadmember.Options{
		NoDeleteSpecialCase: o.NoDeleteRule,
		TrustDowncasts:      o.TrustDowncasts,
		WritesAreUses:       o.WritesAreUses,
		LibraryClasses:      o.Library,
	}
	switch strings.ToLower(o.CallGraph) {
	case "", "rta":
		opts.CallGraph = callgraph.RTA
	case "cha":
		opts.CallGraph = callgraph.CHA
	case "all":
		opts.CallGraph = callgraph.ALL
	default:
		return opts, badRequest("unknown callgraph %q", o.CallGraph)
	}
	switch strings.ToLower(o.Sizeof) {
	case "", "ignore":
		opts.Sizeof = deadmember.SizeofIgnore
	case "conservative":
		opts.Sizeof = deadmember.SizeofConservative
	default:
		return opts, badRequest("unknown sizeof %q", o.Sizeof)
	}
	return opts, nil
}

func decodeFormat(format string) (string, *httpError) {
	switch format {
	case "":
		return "text", nil
	case "text", "json", "sarif":
		return format, nil
	default:
		return "", badRequest("unknown format %q", format)
	}
}

// artifactKey is the content address of a rendered response in the
// persist store: a hash of the endpoint, every option that affects the
// rendered bytes, and the compilation fingerprint of the sources. Two
// requests share a key exactly when their responses are byte-identical
// by construction.
func artifactKey(endpoint string, b *bundle) string {
	canon := strings.Join([]string{
		endpoint,
		"cg=" + b.opts.CallGraph.String(),
		"sizeof=" + b.opts.Sizeof.String(),
		fmt.Sprintf("nodelete=%t", b.opts.NoDeleteSpecialCase),
		fmt.Sprintf("downcasts=%t", b.opts.TrustDowncasts),
		fmt.Sprintf("writesareuses=%t", b.opts.WritesAreUses),
		"lib=" + strings.Join(b.opts.LibraryClasses, ","),
		fmt.Sprintf("v=%t", b.verbose),
		fmt.Sprintf("classes=%t", b.classes),
		fmt.Sprintf("unreachable=%t", b.unreachable),
		"format=" + b.format,
		fmt.Sprintf("budget=%d", b.budget),
		// Lint once had precision tiers and the key named the one used.
		// Every artifact is the flow tier's, so the segment stays as a
		// constant: keys, and persist dirs written with them, survive.
		"precision=flow",
		fmt.Sprintf("keepunreachable=%t", b.keepUnreachable),
		"src=" + engine.Fingerprint(b.sources...),
	}, "\x00")
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:])
}
