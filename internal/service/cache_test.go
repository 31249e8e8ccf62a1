package service

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ccnet/ccnet/internal/canon"
)

func key(s string) canon.Key { return canon.MustHash(s) }

func TestCacheEvictsByEntries(t *testing.T) {
	c := NewCache(2, 0, 0)
	c.Put(key("a"), []byte("1"))
	c.Put(key("b"), []byte("2"))
	c.Put(key("c"), []byte("3")) // evicts a (LRU)
	if _, ok := c.Get(key("a")); ok {
		t.Error("oldest entry survived an over-capacity Put")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := c.Get(key(k)); !ok {
			t.Errorf("entry %q missing", k)
		}
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

func TestCacheLRUOrderFollowsGets(t *testing.T) {
	c := NewCache(2, 0, 0)
	c.Put(key("a"), []byte("1"))
	c.Put(key("b"), []byte("2"))
	if _, ok := c.Get(key("a")); !ok { // a becomes most recently used
		t.Fatal("warm Get missed")
	}
	c.Put(key("c"), []byte("3")) // must evict b, not a
	if _, ok := c.Get(key("a")); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := c.Get(key("b")); ok {
		t.Error("least recently used entry survived")
	}
}

func TestCacheEvictsByBytes(t *testing.T) {
	// Each entry costs len(key)+len(val)+entryOverhead; keys are 67 bytes
	// ("v1:"+64 hex). Budget for exactly two entries of 100-byte values.
	perEntry := int64(67 + 100 + entryOverhead)
	c := NewCache(0, 2*perEntry, 0)
	val := make([]byte, 100)
	c.Put(key("a"), val)
	c.Put(key("b"), val)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	c.Put(key("c"), val)
	if c.Len() != 2 {
		t.Errorf("len after over-budget Put = %d, want 2", c.Len())
	}
	if _, ok := c.Get(key("a")); ok {
		t.Error("oldest entry survived byte-bound eviction")
	}
	if got := c.Stats().Bytes; got > 2*perEntry {
		t.Errorf("bytes = %d over budget %d", got, 2*perEntry)
	}
}

func TestCacheRejectsOversizedValue(t *testing.T) {
	c := NewCache(0, 256, 0)
	c.Put(key("big"), make([]byte, 1024))
	if c.Len() != 0 {
		t.Error("payload larger than the byte budget was cached")
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c := NewCache(10, 0, time.Minute)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	c.Put(key("a"), []byte("1"))
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("fresh entry missing")
	}
	now = now.Add(59 * time.Second)
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("entry expired before its TTL")
	}
	now = now.Add(2 * time.Second)
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("entry survived past its TTL")
	}
	s := c.Stats()
	if s.Expirations != 1 {
		t.Errorf("expirations = %d, want 1", s.Expirations)
	}
	if s.Entries != 0 {
		t.Errorf("expired entry still counted: entries = %d", s.Entries)
	}
}

func TestCacheReplaceSameKey(t *testing.T) {
	c := NewCache(10, 0, 0)
	c.Put(key("a"), []byte("old"))
	c.Put(key("a"), []byte("new"))
	v, ok := c.Get(key("a"))
	if !ok || string(v) != "new" {
		t.Errorf("Get = %q, %v; want \"new\", true", v, ok)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d after same-key replace, want 1", c.Len())
	}
}

func TestCacheStatsHitRate(t *testing.T) {
	c := NewCache(10, 0, 0)
	c.Put(key("a"), []byte("1"))
	c.Get(key("a"))
	c.Get(key("a"))
	c.Get(key("missing"))
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", s.Hits, s.Misses)
	}
	if want := 2.0 / 3.0; s.HitRate != want {
		t.Errorf("hit rate = %v, want %v", s.HitRate, want)
	}
}

// TestCacheConcurrent hammers one cache from many goroutines; run under
// -race this checks the locking discipline.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(64, 1<<20, time.Minute)
	keys := make([]canon.Key, 128)
	for i := range keys {
		keys[i] = key(fmt.Sprintf("k%d", i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := keys[(g*31+i)%len(keys)]
				if i%3 == 0 {
					c.Put(k, []byte("payload"))
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 64 {
		t.Errorf("len = %d exceeds entry bound", n)
	}
}

// TestSingleflightCoalesces gates the computation so every caller is
// provably concurrent, then checks fn ran exactly once and exactly one
// caller was the executor.
func TestSingleflightCoalesces(t *testing.T) {
	var g flightGroup
	const callers = 16
	var (
		executions atomic.Int64
		sharedN    atomic.Int64
		entered    = make(chan struct{})
		release    = make(chan struct{})
		wg         sync.WaitGroup
	)
	fn := func() ([]byte, error) {
		executions.Add(1)
		close(entered) // signal: computation is in flight
		<-release
		return []byte("result"), nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if v, err, _ := g.Do("k", fn); err != nil || string(v) != "result" {
			t.Errorf("executor got %q, %v", v, err)
		}
	}()
	<-entered // the flight is now open; everyone below must join it
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := g.Do("k", fn)
			if err != nil || string(v) != "result" {
				t.Errorf("caller got %q, %v", v, err)
			}
			if shared {
				sharedN.Add(1)
			}
		}()
	}
	// Give the joiners a moment to block on the flight, then land it.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Errorf("fn executed %d times, want exactly 1", n)
	}
	if n := sharedN.Load(); n != callers-1 {
		t.Errorf("%d callers shared, want %d", n, callers-1)
	}
}

// TestSingleflightSequentialRunsEachTime verifies the group retains
// nothing between flights (reuse across time is the cache's job).
func TestSingleflightSequentialRunsEachTime(t *testing.T) {
	var g flightGroup
	var n atomic.Int64
	fn := func() ([]byte, error) { n.Add(1); return nil, nil }
	g.Do("k", fn)
	g.Do("k", fn)
	if got := n.Load(); got != 2 {
		t.Errorf("sequential calls executed fn %d times, want 2", got)
	}
}

// TestSingleflightSurvivesPanic verifies a panicking computation lands
// the flight (as an error) instead of wedging the key forever.
func TestSingleflightSurvivesPanic(t *testing.T) {
	var g flightGroup
	_, err, _ := g.Do("k", func() ([]byte, error) { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking flight returned err %v, want the panic surfaced", err)
	}
	// The key must be free again: a later call runs fn normally.
	v, err, _ := g.Do("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(v) != "ok" {
		t.Errorf("key wedged after panic: got %q, %v", v, err)
	}
}

// TestSingleflightDistinctKeysDoNotCoalesce runs two gated computations
// under different keys concurrently; both must execute.
func TestSingleflightDistinctKeysDoNotCoalesce(t *testing.T) {
	var g flightGroup
	var n atomic.Int64
	var wg sync.WaitGroup
	barrier := make(chan struct{})
	for _, k := range []string{"k1", "k2"} {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			g.Do(k, func() ([]byte, error) {
				n.Add(1)
				<-barrier
				return nil, nil
			})
		}(k)
	}
	// Both flights must be open at once for close to release them.
	for n.Load() != 2 {
		time.Sleep(time.Millisecond)
	}
	close(barrier)
	wg.Wait()
}

// TestCacheAliases pins the alias bookkeeping: an alias finds its entry
// and counts as a hit, is charged against the byte bound, is capped per
// entry (the oldest goes), and dies with its entry.
func TestCacheAliases(t *testing.T) {
	c := NewCache(0, 1<<20, 0)
	c.Put(key("a"), []byte("payload"))
	base := c.Stats().Bytes
	digest := func(i int) BodyDigest { return digestBody("evaluate", []byte(fmt.Sprint(i))) }

	c.AddAlias(BodyDigest{}, key("a"))  // zero digest: ignored
	c.AddAlias(digest(99), key("none")) // key not cached: ignored
	for i := 0; i <= maxAliases; i++ {  // one more than the cap
		c.AddAlias(digest(i), key("a"))
	}
	c.AddAlias(digest(maxAliases), key("a")) // already aliased: ignored
	st := c.Stats()
	if st.Aliases != maxAliases || st.Bytes != base+maxAliases*aliasSize {
		t.Fatalf("after %d aliases: %d aliases, %d bytes; want %d and %d",
			maxAliases+1, st.Aliases, st.Bytes, maxAliases, base+maxAliases*aliasSize)
	}
	if _, _, ok := c.GetAlias(digest(0)); ok {
		t.Error("the oldest alias survived the cap")
	}
	k, v, ok := c.GetAlias(digest(maxAliases))
	if !ok || k != key("a") || string(v) != "payload" {
		t.Fatalf("GetAlias = %q, %q, %v", k, v, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.AliasHits != 1 || st.Misses != 0 {
		t.Errorf("alias lookups counted %+v; want one hit and no misses", st)
	}

	c.Put(key("a"), []byte("replaced")) // a replaced entry drops its aliases
	if st := c.Stats(); st.Aliases != 0 || st.Bytes != base+1 {
		t.Errorf("after replacing the entry: %+v", st)
	}
	if _, _, ok := c.GetAlias(digest(maxAliases)); ok {
		t.Error("alias outlived its entry")
	}
}

// TestCacheAliasChargeEvicts: an alias that pushes the cache over its
// byte bound evicts the least recently used entry with its aliases.
func TestCacheAliasChargeEvicts(t *testing.T) {
	val := []byte(strings.Repeat("x", 100))
	one := int64(len(key("a"))) + int64(len(val)) + entryOverhead
	c := NewCache(0, 2*one+aliasSize/2, 0)
	c.Put(key("a"), val)
	c.AddAlias(digestBody("sweep", []byte("a")), key("a"))
	c.Put(key("b"), val) // a plus its alias no longer fit beside b
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("entry a survived")
	}
	c.AddAlias(digestBody("sweep", []byte("b")), key("b"))
	if st := c.Stats(); st.Entries != 1 || st.Aliases != 1 || st.Evictions != 1 {
		t.Errorf("stats %+v; want b and its alias only", st)
	}
}
