package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"strings"
	"time"
)

// answer is what the benchmark keeps of one response: its timing, how it
// was served, and fingerprints of its result bytes. Raw bodies are not
// kept, so the generator's memory stays flat however long it runs.
type answer struct {
	fail  string // empty when the response is well formed
	class string // hit, coalesced or miss; empty when not reported
	key   string
	// hash fingerprints the result bytes within this process; sum is
	// their SHA-256, taken when the caller asks (first answers).
	hash uint64
	sum  [32]byte
	// firstLine is the time to the first NDJSON line (streams only).
	firstLine time.Duration
	timing    []string // Server-Timing header values
}

// hashSeed is fixed per process: hashes are compared only within a run.
var hashSeed = maphash.MakeSeed()

// newClient returns a client with exactly one connection, so a generator
// with n senders holds at most n connections.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// readOpts selects the optional parts of an answer.
type readOpts struct {
	sum    bool // validate the result JSON and take its SHA-256
	key    bool // keep the envelope key
	timing bool // keep Server-Timing values
}

// send posts one request and reads the whole response, checking its
// shape. firstLine is measured from when the request left.
func send(c *http.Client, base string, r *Req, o readOpts) answer {
	start := time.Now()
	resp, err := c.Post(base+r.Path, "application/json", bytes.NewReader(r.Body))
	if err != nil {
		return answer{fail: "transport: " + err.Error()}
	}
	defer resp.Body.Close()
	return readAnswer(resp, start, o)
}

// readAnswer reads and checks one response.
func readAnswer(resp *http.Response, start time.Time, o readOpts) answer {
	var err error
	a := answer{class: resp.Header.Get("X-Cache")}
	if o.timing {
		a.timing = resp.Header.Values("Server-Timing")
	}
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		a.fail = fmt.Sprintf("status %d", resp.StatusCode)
		return a
	}
	var result []byte
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/x-ndjson") {
		result, err = readStream(bufio.NewReaderSize(resp.Body, 64<<10), start, &a)
	} else {
		var body []byte
		if body, err = io.ReadAll(resp.Body); err == nil {
			result, err = splitEnvelope(body, &a)
		}
	}
	if err != nil {
		a.fail = err.Error()
		return a
	}
	a.hash = maphash.Bytes(hashSeed, result)
	if o.sum {
		if !json.Valid(result) {
			a.fail = "result is not valid JSON"
			return a
		}
		a.sum = sha256.Sum256(result)
	}
	if !o.key {
		a.key = ""
	}
	return a
}

// The service writes both terminal shapes with encoding/json from fixed
// structs, so their field order is part of the wire format:
//
//	{"cached":false,"key":"v1:…","result":{…}}
//	{"kind":"result","cached":true,"key":"v1:…","result":{…}}
var (
	errEnvelope   = errors.New("malformed envelope")
	errNoResult   = errors.New("stream ended without a result line")
	errErrorFrame = errors.New("stream ended with an error frame")
)

// splitEnvelope checks a JSON envelope and returns its result bytes.
func splitEnvelope(body []byte, a *answer) ([]byte, error) {
	rest, ok := bytes.CutPrefix(body, []byte(`{"cached":`))
	if !ok {
		return nil, errEnvelope
	}
	return splitCachedKeyResult(rest, a)
}

// splitCachedKeyResult parses `true|false,"key":"…","result":…}\n`.
func splitCachedKeyResult(rest []byte, a *answer) ([]byte, error) {
	cached := false
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		cached, rest = true, rest[4:]
	case bytes.HasPrefix(rest, []byte("false")):
		rest = rest[5:]
	default:
		return nil, errEnvelope
	}
	rest, ok := bytes.CutPrefix(rest, []byte(`,"key":"`))
	if !ok {
		return nil, errEnvelope
	}
	i := bytes.IndexByte(rest, '"')
	if i < 0 {
		return nil, errEnvelope
	}
	a.key = string(rest[:i])
	rest, ok = bytes.CutPrefix(rest[i:], []byte(`","result":`))
	if !ok {
		return nil, errEnvelope
	}
	rest, ok = bytes.CutSuffix(rest, []byte("}\n"))
	if !ok || len(rest) == 0 {
		return nil, errEnvelope
	}
	if a.class == "" {
		a.class = "miss"
		if cached {
			a.class = "hit"
		}
	}
	return rest, nil
}

// readStream reads NDJSON frames: any number of progress frames, then one
// result frame, which must be the last line.
func readStream(br *bufio.Reader, start time.Time, a *answer) ([]byte, error) {
	var last []byte
	for n := 0; ; n++ {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// A line longer than the buffer: collect it whole.
			buf := append([]byte(nil), line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				buf = append(buf, line...)
			}
			line = buf
		}
		if len(line) > 0 && n == 0 {
			a.firstLine = time.Since(start)
		}
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
		if last != nil {
			return nil, errors.New("frame after the result line")
		}
		switch {
		case bytes.HasPrefix(line, []byte(`{"kind":"progress"`)):
		case bytes.HasPrefix(line, []byte(`{"kind":"result","cached":`)):
			last = append([]byte(nil), line...)
		case bytes.HasPrefix(line, []byte(`{"kind":"error"`)):
			return nil, errErrorFrame
		default:
			return nil, fmt.Errorf("malformed frame %.40q", line)
		}
		if err == io.EOF {
			break
		}
	}
	if last == nil {
		return nil, errNoResult
	}
	return splitCachedKeyResult(last[len(`{"kind":"result","cached":`):], a)
}
