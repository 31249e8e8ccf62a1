package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Parse decodes and validates one scenario from r. Unknown JSON fields
// are rejected (catching typos like "flitsBytes"), and validation errors
// carry field paths; name labels the source in error messages (a file
// name, "<stdin>", …).
func Parse(r io.Reader, name string) (*Spec, error) {
	var s Spec
	if err := Decode(r, &s, "scenario"); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: invalid spec:\n%w", name, err)
	}
	return &s, nil
}

// Decode decodes exactly one JSON document from r into dst, rejecting
// unknown fields and trailing data (a second document in the same stream
// is almost always a mistake); doc names the object in the trailing-data
// message. Type errors are rewritten into loader language with the
// offending field path. The optimizer's loader and the HTTP service
// decode through it, so every document's decode errors read alike and
// IsDecodeError recognizes them.
func Decode(r io.Reader, dst any, doc string) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		if te, ok := err.(*json.UnmarshalTypeError); ok && te.Field != "" {
			err = fmt.Errorf("%s: expected %s, got JSON %s", te.Field, te.Type, te.Value)
		}
		return &decodeError{err}
	}
	if dec.More() {
		return &decodeError{fmt.Errorf("trailing data after the %s object", doc)}
	}
	return nil
}

// decodeError marks a Decode failure.
type decodeError struct{ err error }

func (e *decodeError) Error() string { return e.err.Error() }
func (e *decodeError) Unwrap() error { return e.err }

// IsDecodeError reports whether err (or an error it wraps) came from
// Decode: the document itself is broken — malformed JSON, an unknown
// field, a value of the wrong type, trailing data — as opposed to a
// document that decoded but failed validation.
func IsDecodeError(err error) bool {
	var de *decodeError
	return errors.As(err, &de)
}

// Load reads and validates one scenario file.
func Load(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	return Parse(f, filepath.Base(path))
}

// LoadAll expands the arguments into scenario files — each argument is a
// .json file or a directory searched (non-recursively) for *.json — and
// loads every one. Scenarios are returned in sorted path order so
// campaigns are reproducible regardless of argument order; duplicate
// names across files are an error because results are keyed by name.
func LoadAll(args []string) ([]*Spec, error) {
	var paths []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		if !info.IsDir() {
			paths = append(paths, arg)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(arg, "*.json"))
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("scenario: no *.json files in %s", arg)
		}
		paths = append(paths, matches...)
	}
	sort.Strings(paths)

	var specs []*Spec
	seen := map[string]string{}
	for _, p := range paths {
		s, err := Load(p)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[s.Name]; dup {
			return nil, fmt.Errorf("scenario: duplicate name %q in %s and %s", s.Name, prev, p)
		}
		seen[s.Name] = p
		specs = append(specs, s)
	}
	return specs, nil
}

// effectiveTitle returns Title, falling back to Name.
func (s *Spec) effectiveTitle() string {
	if strings.TrimSpace(s.Title) != "" {
		return s.Title
	}
	return s.Name
}
