package analysis

import (
	"math/rand/v2"
	"testing"

	"drishti/internal/cache"
	"drishti/internal/mem"
	"drishti/internal/repl"
	"drishti/internal/trace"
)

// TestLRUCacheMatchesStackDistance is a differential test of the
// set-associative cache against the Mattson stack-distance oracle: an
// LRU set of W ways hits exactly the reuses whose stack distance within
// the set's own substream is below W. So for every set, the misses
// cache.Cache counts with repl.LRU must equal the set substream's
// accesses minus Hist[0:W] of its Profile.
func TestLRUCacheMatchesStackDistance(t *testing.T) {
	const sets, ways = 16, 4
	rng := rand.New(rand.NewPCG(7, 11))
	// setBlock is the i-th distinct block mapping to set s.
	setBlock := func(s, i int) uint64 { return uint64(i*sets + s) }

	streams := map[string][]uint64{}
	var random, skewed, cyclic, thrash, scan []uint64
	for i := 0; i < 20_000; i++ {
		random = append(random, uint64(rng.IntN(3*sets*ways)))
		if rng.IntN(4) == 0 {
			skewed = append(skewed, uint64(rng.IntN(64*sets*ways)))
		} else {
			skewed = append(skewed, uint64(rng.IntN(sets*ways/2)))
		}
	}
	// Cyclic over exactly W blocks per set: every reuse hits. Cyclic over
	// W+1 blocks per set: the classic LRU thrash, every access misses.
	for round := 0; round < 200; round++ {
		for i := 0; i <= ways; i++ {
			for s := 0; s < sets; s++ {
				if i < ways {
					cyclic = append(cyclic, setBlock(s, i))
				}
				thrash = append(thrash, setBlock(s, i))
			}
		}
	}
	for b := uint64(0); b < 10*sets*ways; b++ {
		scan = append(scan, b, b) // immediate reuse, then never again
	}
	streams["random"], streams["skewed"], streams["cyclic"] = random, skewed, cyclic
	streams["thrash"], streams["scan"] = thrash, scan

	for name, blocks := range streams {
		c, err := cache.New(cache.Config{Name: name, Sets: sets, Ways: ways}, repl.NewLRU(sets, ways))
		if err != nil {
			t.Fatal(err)
		}
		sub := make([][]trace.Rec, sets)
		for _, b := range blocks {
			a := repl.Access{PC: 0x400, Block: b, Type: mem.Load}
			if hit, _ := c.Access(a); !hit {
				c.Fill(a, false)
			}
			s := c.SetIndex(b)
			sub[s] = append(sub[s], trace.Rec{PC: 0x400, Addr: b << mem.BlockShift})
		}
		var total uint64
		for s := 0; s < sets; s++ {
			p := Profile(sub[s], 2*ways)
			want := p.Accesses
			for _, n := range p.Hist[:ways] {
				want -= n
			}
			if got := c.SetMisses[s]; got != want {
				t.Errorf("%s: set %d: cache missed %d times, stack distance predicts %d", name, s, got, want)
			}
			total += want
		}
		switch name {
		case "cyclic":
			if total != sets*ways {
				t.Errorf("cyclic: %d misses, want only the %d cold ones", total, sets*ways)
			}
		case "thrash":
			if total != uint64(len(blocks)) {
				t.Errorf("thrash: %d misses of %d accesses, want every access to miss", total, len(blocks))
			}
		}
	}
}
