package canon

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/ccnet/ccnet/internal/scenario"
)

// TestCanonicalForm pins the canonical encoding: sorted keys, no
// whitespace, shortest number spelling.
func TestCanonicalForm(t *testing.T) {
	got, err := Canonicalize(map[string]any{
		"b": 2.0,
		"a": []any{1.0, "x", nil, true},
		"c": map[string]any{"z": 1.0, "y": 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"a":[1,"x",null,true],"b":2,"c":{"y":0.5,"z":1}}`
	if string(got) != want {
		t.Errorf("canonical form = %s, want %s", got, want)
	}
}

// TestHashStableAcrossMapOrder builds the same logical value through
// different construction and JSON-spelling orders; the keys must agree.
func TestHashStableAcrossMapOrder(t *testing.T) {
	m1 := map[string]int{}
	m1["alpha"] = 1
	m1["beta"] = 2
	m1["gamma"] = 3
	m2 := map[string]int{}
	m2["gamma"] = 3
	m2["alpha"] = 1
	m2["beta"] = 2

	k1, err := Hash(m1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Hash(m2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("hash differs across map insertion order: %s vs %s", k1, k2)
	}

	// Same document, different JSON key order, decoded generically.
	var g1, g2 any
	if err := json.Unmarshal([]byte(`{"x": 1, "y": {"a": true, "b": [1,2]}}`), &g1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"y": {"b": [1,2], "a": true}, "x": 1}`), &g2); err != nil {
		t.Fatal(err)
	}
	j1 := MustHash(g1)
	j2 := MustHash(g2)
	if j1 != j2 {
		t.Errorf("hash differs across JSON key order: %s vs %s", j1, j2)
	}
}

// baseSpec is the reference scenario for the sensitivity test.
func baseSpec() *scenario.Spec {
	return &scenario.Spec{
		Name: "base",
		System: scenario.SystemSpec{
			Preset: "small",
		},
		Traffic: scenario.TrafficSpec{
			Flits:     32,
			FlitBytes: []int{256},
			Lambda:    scenario.LambdaSpec{Max: 1e-3, Points: 8},
		},
	}
}

// TestHashChangesOnSemanticFieldChange mutates one semantic field at a
// time; every mutation must move the key.
func TestHashChangesOnSemanticFieldChange(t *testing.T) {
	base := MustHash(baseSpec())
	mutations := map[string]func(*scenario.Spec){
		"name":           func(s *scenario.Spec) { s.Name = "other" },
		"seed":           func(s *scenario.Spec) { s.Seed = 7 },
		"preset":         func(s *scenario.Spec) { s.System.Preset = "N=544" },
		"icn2Scale":      func(s *scenario.Spec) { s.System.ICN2BandwidthScale = 1.2 },
		"flits":          func(s *scenario.Spec) { s.Traffic.Flits = 64 },
		"flitBytes":      func(s *scenario.Spec) { s.Traffic.FlitBytes = []int{64} },
		"flitBytesExtra": func(s *scenario.Spec) { s.Traffic.FlitBytes = []int{256, 64} },
		"pattern":        func(s *scenario.Spec) { s.Traffic.Pattern = "hotspot"; s.Traffic.HotFraction = 0.1 },
		"lambdaMax":      func(s *scenario.Spec) { s.Traffic.Lambda.Max = 2e-3 },
		"lambdaPoints":   func(s *scenario.Spec) { s.Traffic.Lambda.Points = 9 },
		"lambdaValues":   func(s *scenario.Spec) { s.Traffic.Lambda = scenario.LambdaSpec{Values: []float64{1e-4}} },
		"modelVariant":   func(s *scenario.Spec) { s.Model.Variant = "paper-literal" },
		"modelRelax":     func(s *scenario.Spec) { s.Model.InvertRelaxFactor = true },
		"engineSim":      func(s *scenario.Spec) { s.Engines.Simulation = true },
		"engineWarmup":   func(s *scenario.Spec) { s.Engines.Warmup = 123 },
		"assertionAdd":   func(s *scenario.Spec) { s.Assertions = []scenario.AssertionSpec{{Type: "monotonic"}} },
		"explicitSystem": func(s *scenario.Spec) {
			s.System = scenario.SystemSpec{Ports: 4, Clusters: []scenario.ClusterGroupSpec{{Count: 4, TreeLevels: 2}}}
		},
	}
	seen := map[Key]string{"": "zero"}
	for name, mutate := range mutations {
		s := baseSpec()
		mutate(s)
		k := MustHash(s)
		if k == base {
			t.Errorf("mutation %q did not change the key", name)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("mutations %q and %q collide on %s", name, prev, k)
		}
		seen[k] = name
	}
}

// TestHashPartBoundaries verifies the length-prefixed part framing.
func TestHashPartBoundaries(t *testing.T) {
	a := MustHash("ab")
	b := MustHash("a", "b")
	if a == b {
		t.Error(`Hash("ab") == Hash("a","b")`)
	}
	if MustHash("a") == MustHash("a", "a") {
		t.Error("part count does not affect the key")
	}
}

// TestHashDeterministic re-hashes the same value many times.
func TestHashDeterministic(t *testing.T) {
	first := MustHash(baseSpec())
	for i := 0; i < 100; i++ {
		if k := MustHash(baseSpec()); k != first {
			t.Fatalf("hash unstable at iteration %d: %s vs %s", i, k, first)
		}
	}
}

func TestHashRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Hash(map[string]float64{"x": v}); err == nil {
			t.Errorf("Hash accepted non-finite %v", v)
		}
	}
}

func TestKeyValid(t *testing.T) {
	k := MustHash("x")
	if !k.Valid() {
		t.Errorf("fresh key %q not Valid", k)
	}
	if !strings.HasPrefix(string(k), "v2:") {
		t.Errorf("key %q missing scheme prefix", k)
	}
	for _, bad := range []Key{"", "v2:", Key("v1:" + strings.Repeat("0", 64)), Key("v2:" + strings.Repeat("0", 63))} {
		if bad.Valid() {
			t.Errorf("key %q unexpectedly Valid", bad)
		}
	}
}

// TestIntegersBeyondFloatPrecisionStayDistinct pins the v2 number rule:
// integer tokens are kept as written, so uint64 seeds that round to the
// same float64 (2^53 and 2^53+1) still get different keys, both as Go
// values and as raw request bodies.
func TestIntegersBeyondFloatPrecisionStayDistinct(t *testing.T) {
	const lo, hi = uint64(1) << 53, uint64(1)<<53 + 1
	if got, err := Canonicalize(hi); err != nil || string(got) != "9007199254740993" {
		t.Errorf("Canonicalize(2^53+1) = %s, %v; want the integer as written", got, err)
	}
	loSpec, hiSpec := baseSpec(), baseSpec()
	loSpec.Seed, hiSpec.Seed = lo, hi
	if MustHash("campaign", loSpec) == MustHash("campaign", hiSpec) {
		t.Error("specs with seeds 2^53 and 2^53+1 share a key")
	}
	body := func(seed uint64) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"name":"des-small","seed":%d,"system":{"preset":"small"}}`, seed))
	}
	if MustHash("campaign", body(lo)) == MustHash("campaign", body(hi)) {
		t.Error("raw bodies with seeds 2^53 and 2^53+1 share a key")
	}
	// Float spellings still normalize: an exponent form of an integer
	// means the same float64 as its digits.
	if MustHash(json.RawMessage(`[1e3, 2.50]`)) != MustHash(json.RawMessage(`[1000, 2.5]`)) {
		t.Error("float spellings of one value no longer share a key")
	}
}
