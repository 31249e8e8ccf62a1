// Package canon derives deterministic cache keys from evaluation
// requests: a canonical JSON form (stable across Go map iteration order,
// JSON key order and float spelling) is hashed with SHA-256 into an
// opaque versioned Key. The service layer keys its result cache on
// Hash(system spec, message spec, resolved model options, lambda grid),
// so two requests that mean the same evaluation — however they were
// spelled — coalesce onto one cache entry, while any semantic change to
// any part yields a different key.
package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// scheme versions the canonicalization itself: bump it when the
// canonical form changes so stale persisted keys can never alias.
// v2 keeps integer tokens exactly as written (v1 rounded integers
// beyond 15 digits through float64, merging distinct uint64 seeds).
const scheme = "v2"

// Scheme is the exported canonicalization-scheme version; the service's
// /v1/version endpoint reports it so operators can tell whether two
// replicas' cache keys are compatible.
const Scheme = scheme

// Key is a canonical cache key: "v2:" + hex SHA-256 of the canonical
// encoding. The zero value is invalid.
type Key string

// Valid reports whether k has the current scheme prefix and digest length.
func (k Key) Valid() bool {
	s := string(k)
	return strings.HasPrefix(s, scheme+":") && len(s) == len(scheme)+1+2*sha256.Size
}

// Hash canonicalizes each part and returns the joint key. Parts are
// length-prefixed before hashing, so ("ab", "c") and ("a", "bc") — or one
// part versus two — can never collide. Any value encodable by
// encoding/json is accepted; NaN or ±Inf numbers anywhere in a part are
// an error (they have no JSON form, so they cannot round-trip stably).
func Hash(parts ...any) (Key, error) {
	h := sha256.New()
	var lenBuf [8]byte
	for i, part := range parts {
		c, err := Canonicalize(part)
		if err != nil {
			return "", fmt.Errorf("canon: part %d: %w", i, err)
		}
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(c)))
		h.Write(lenBuf[:])
		h.Write(c)
	}
	return Key(scheme + ":" + hex.EncodeToString(h.Sum(nil))), nil
}

// MustHash is Hash for parts known to be encodable (fixed structs with no
// NaN/Inf floats); it panics on error.
func MustHash(parts ...any) Key {
	k, err := Hash(parts...)
	if err != nil {
		panic(err)
	}
	return k
}

// Canonicalize returns the canonical JSON encoding of v: objects with
// keys sorted (recursively), no insignificant whitespace, integer
// tokens exactly as written and every other number in Go's shortest
// round-trippable float64 spelling. The value is first marshaled
// with encoding/json (so struct tags, omitempty and custom marshalers
// apply exactly as they do on the wire) and then canonicalized by a
// single pass over the marshaled bytes, which erases any ordering the
// source value carried.
//
// The scanner path produces byte-identical output to the original
// build-a-generic-tree implementation (canonicalizeReference in the
// package's tests, enforced by differential and fuzz tests) at a
// fraction of its allocations — key derivation sits on the hot path of
// every cache hit.
func Canonicalize(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dst := make([]byte, 0, len(raw))
	dst, rest, err := appendCanonical(dst, raw)
	if err != nil {
		return nil, err
	}
	if len(skipSpace(rest)) != 0 {
		return nil, fmt.Errorf("trailing data after JSON value")
	}
	return dst, nil
}
