package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"

	"github.com/ccnet/ccnet/internal/service"
)

// checker holds every answer of a run to the rules a correct server
// obeys: a 2xx status and a well-formed envelope or frame sequence (send
// checks those), and the same result bytes every time a spec is asked,
// however it is spelled and whichever tier answers. First answers are
// also compared with the result computed in-process.
type checker struct {
	plan *Plan
	// checkN is how many of the first phase's requests the run sends for
	// sure: their specs make up the check set.
	checkN int
	first  map[int]firstAnswer
	// attempted and failed count requests; reasons counts failures by
	// cause.
	attempted, failed int
	reasons           map[string]int
	// Cache classes seen by the client: hits among the answers that carry
	// a class, and misses among re-spelled repeats.
	classed, hits            int
	respelled, respellMisses int
}

type firstAnswer struct {
	hash   uint64
	sum    [32]byte
	hasSum bool
}

func newChecker(p *Plan, checkN int) *checker {
	return &checker{plan: p, checkN: checkN, first: map[int]firstAnswer{}, reasons: map[string]int{}}
}

func (ck *checker) fail(reason string) {
	ck.failed++
	ck.reasons[reason]++
}

// add checks one driven phase. Phases must be added in plan order: a
// spec's first successful answer in that order is the one every later
// answer must equal.
func (ck *checker) add(pr *phaseRun) {
	for i := range pr.samples {
		s := &pr.samples[i]
		if s.sent {
			ck.addAnswer(&pr.phase.Reqs[i], &s.answer)
		}
	}
}

func (ck *checker) addAnswer(r *Req, a *answer) {
	ck.attempted++
	if a.fail != "" {
		ck.fail(a.fail)
		return
	}
	if a.class != "" {
		ck.classed++
		if a.class == "hit" {
			ck.hits++
		}
	}
	if r.Respelled {
		ck.respelled++
		if a.class == "miss" {
			ck.respellMisses++
		}
	}
	f, ok := ck.first[r.Spec]
	switch {
	case !ok:
		ck.first[r.Spec] = firstAnswer{hash: a.hash, sum: a.sum, hasSum: r.Fresh}
	case a.hash != f.hash:
		ck.fail("result differs from the spec's first answer")
	case r.Fresh && !f.hasSum:
		// A repeat was answered before the spec's first request in the
		// plan (a capacity probe ran in between); keep the digest input.
		f.sum, f.hasSum = a.sum, true
		ck.first[r.Spec] = f
	}
}

// checkSet lists the specs first sent among the first n requests of the
// plan's first phase. A run sends all of those, so the digest over them is
// the same for every run of a seed in the same mode.
func (p *Plan) checkSet(n int) []int {
	var ids []int
	for _, r := range p.First.Reqs[:min(n, len(p.First.Reqs))] {
		if r.Fresh {
			ids = append(ids, r.Spec)
		}
	}
	return ids
}

// checkPrefix is the part of a closed loop every run sends.
const checkPrefix = 256

// refPerKind bounds the heavy specs recomputed in-process per kind; reads
// are all recomputed.
const refPerKind = 2

// verify recomputes the check set's first answers in-process and folds
// the (spec, result) pairs into the run digest. A mismatch counts as a
// failed request.
func (ck *checker) verify() (digest string, err error) {
	h := sha256.New()
	perKind := map[string]int{}
	for _, id := range ck.plan.checkSet(ck.checkN) {
		f, ok := ck.first[id]
		if !ok || !f.hasSum {
			return "", fmt.Errorf("spec %d of the check set has no first answer", id)
		}
		sp := &ck.plan.Specs[id]
		body := sp.body(styleCanonical)
		fmt.Fprintf(h, "%x %x\n", sha256.Sum256(body), f.sum)
		if sp.kind != kEvaluate && sp.kind != kSweep {
			if perKind[sp.kind] >= refPerKind {
				continue
			}
			perKind[sp.kind]++
		}
		want, err := reference(sp, body)
		if err != nil {
			return "", fmt.Errorf("reference for %s spec %d: %w", sp.kind, id, err)
		}
		if sha256.Sum256(want) != f.sum {
			ck.fail("result differs from the in-process computation")
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// reference is the result the service must answer for body: computed
// from the packages directly, or for a campaign by a fresh in-process
// handler.
func reference(sp *spec, body []byte) ([]byte, error) {
	if sp.kind != kCampaign {
		c, err := compute(sp, body)
		return c.result, err
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/"+sp.kind, bytes.NewReader(body))
	service.New(service.Options{}).Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("in-process handler: status %d", rec.Code)
	}
	var a answer
	return splitEnvelope(rec.Body.Bytes(), &a)
}

// failureLines renders the failure causes, most frequent first.
func (ck *checker) failureLines() []string {
	var out []string
	for r, n := range ck.reasons {
		out = append(out, fmt.Sprintf("%6d  %s", n, r))
	}
	sort.Sort(sort.Reverse(sort.StringSlice(out)))
	return out
}
