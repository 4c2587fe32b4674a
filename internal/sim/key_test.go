package sim

import (
	"testing"

	"drishti/internal/policies"
)

// TestConfigKeyDistinguishesFields mutates the baseline one field at a
// time and requires every variant to produce a distinct key: no two
// differing configs may collide in the result store.
func TestConfigKeyDistinguishesFields(t *testing.T) {
	base := DefaultConfig(4)
	variants := map[string]func(*Config){
		"cores":        func(c *Config) { c.Cores = 8 },
		"slicekb":      func(c *Config) { c.SliceKB *= 2 },
		"llcways":      func(c *Config) { c.LLCWays = 8 },
		"l1kb":         func(c *Config) { c.L1KB = 96 },
		"l1ways":       func(c *Config) { c.L1Ways = 6 },
		"l2kb":         func(c *Config) { c.L2KB = 1024 },
		"l2ways":       func(c *Config) { c.L2Ways = 16 },
		"l1lat":        func(c *Config) { c.L1Latency = 4 },
		"l2lat":        func(c *Config) { c.L2Latency = 14 },
		"llclat":       func(c *Config) { c.LLCLatency = 24 },
		"meshhop":      func(c *Config) { c.MeshPerHop = 5 },
		"meshrouter":   func(c *Config) { c.MeshRouter = 3 },
		"star":         func(c *Config) { c.StarLatency = 7 },
		"dram":         func(c *Config) { c.DRAM.Channels = 9 },
		"policy":       func(c *Config) { c.Policy = policies.Spec{Name: "srrip"} },
		"drishti":      func(c *Config) { c.Policy.Drishti = true },
		"l1pf":         func(c *Config) { c.L1Prefetcher = "none" },
		"l2pf":         func(c *Config) { c.L2Prefetcher = "spp" },
		"instr":        func(c *Config) { c.Instructions = 123 },
		"warmup":       func(c *Config) { c.Warmup = 456 },
		"cpu":          func(c *Config) { c.CPU.IssueWidth = 4; c.CPU.ROBSize = 224 },
		"seed":         func(c *Config) { c.Seed = 2 },
		"trackslices":  func(c *Config) { c.TrackPCSlices = true },
		"inclusive":    func(c *Config) { c.InclusiveLLC = true },
		"modelmshrs":   func(c *Config) { c.ModelMSHRs = true },
		"l1mshrs":      func(c *Config) { c.ModelMSHRs = true; c.L1MSHRs = 4 },
		"l2mshrs":      func(c *Config) { c.ModelMSHRs = true; c.L2MSHRs = 32 },
		"llcmshrs":     func(c *Config) { c.ModelMSHRs = true; c.LLCMSHRs = 128 },
		"sampledsets":  func(c *Config) { c.Policy.SampledSets = 3 },
		"fixedsampled": func(c *Config) { c.Policy.FixedSampledSets = []int{1, 2} },
	}
	keys := map[string]string{"base": base.Key()}
	for name, mutate := range variants {
		cfg := base
		mutate(&cfg)
		k := cfg.Key()
		for prev, pk := range keys {
			if pk == k {
				t.Errorf("variant %q collides with %q: %s", name, prev, k)
			}
		}
		keys[name] = k
	}
}

// TestConfigKeyStable: equal configs must share a key even when optional
// sub-configs are spelled out vs. left zero (they resolve to the same
// machine), and across repeated calls.
func TestConfigKeyStable(t *testing.T) {
	a := DefaultConfig(4)
	b := DefaultConfig(4)
	if a.Key() != b.Key() {
		t.Fatalf("identical configs differ:\n%s\n%s", a.Key(), b.Key())
	}
	// Explicit defaults vs. zero values simulate identically → same key.
	c := DefaultConfig(4)
	c.DRAM = c.dramConfig()
	if a.Key() != c.Key() {
		t.Fatalf("explicit default DRAM changed the key:\n%s\n%s", a.Key(), c.Key())
	}
	if a.Key() != a.Key() {
		t.Fatal("Key not deterministic")
	}
}

// TestConfigKeyDereferencesSpecPointers is the regression the key builder
// exists for: %+v rendered Spec's pointer fields as addresses, so equal
// configs built at different times never shared a cache entry.
func TestConfigKeyDereferencesSpecPointers(t *testing.T) {
	mk := func() Config {
		cfg := DefaultConfig(4)
		cfg.Policy = policies.Spec{
			Name:           "mockingjay",
			UseNocstar:     policies.BoolPtr(true),
			DynamicSampler: policies.BoolPtr(false),
		}
		return cfg
	}
	a, b := mk(), mk()
	if a.Key() != b.Key() {
		t.Fatalf("pointer-valued specs with equal values produce different keys:\n%s\n%s",
			a.Key(), b.Key())
	}
}
