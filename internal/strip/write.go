package strip

import (
	"fmt"
	"io"

	"deadmembers/internal/source"
)

// WriteSources emits transformed sources in the exact format cmd/deadstrip
// prints to stdout: file texts concatenated, preceded by a "// ---- name
// ----" banner when the program spans more than one file. The deadmemd
// /v1/strip endpoint shares this renderer so server responses stay
// byte-identical to the CLI.
func WriteSources(w io.Writer, sources []source.Source) error {
	for _, s := range sources {
		if len(sources) > 1 {
			if _, err := fmt.Fprintf(w, "// ---- %s ----\n", s.Name); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprint(w, s.Text); err != nil {
			return err
		}
	}
	return nil
}
