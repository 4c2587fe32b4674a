package experiments

import (
	"fmt"
	"io"

	"drishti/internal/dram"
	"drishti/internal/sim"
)

// sensitivitySweep runs the main policy set over 16-core homogeneous mixes
// for each variant of the machine configuration and prints one row per
// variant.
func sensitivitySweep(p Params, w io.Writer, variants []struct {
	label string
	edit  func(*sim.Config)
}) error {
	const cores = 16
	specs := mainSpecs()
	fmt.Fprintf(w, "%-16s", "variant")
	for _, s := range specs {
		fmt.Fprintf(w, "  %-14s", s.DisplayName())
	}
	fmt.Fprintln(w)
	for _, v := range variants {
		cfg := p.config(cores)
		v.edit(&cfg)
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("variant %s: %w", v.label, err)
		}
		mixes := p.paperMixes(cfg, cores)
		// The paper's sensitivity studies use homogeneous mixes only.
		mixes = mixes[:min2(p.Mixes, len(mixes))]
		sr, err := runSweep(cfg, mixes, specs, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s", v.label)
		for si := range specs {
			fmt.Fprintf(w, "  %+13.2f%%", pctOver(sr.geoNormWS(si)))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig20LLCSize reproduces Fig 20: sensitivity to the LLC slice size (1, 2,
// 4 MB per core at paper scale), with sampled-set counts fixed as for the
// 2 MB slice.
func Fig20LLCSize(p Params, w io.Writer) error {
	header(w, "fig20", "LLC slice size sensitivity (16 cores)", p)
	base := p.config(16).SliceKB
	err := sensitivitySweep(p, w, []struct {
		label string
		edit  func(*sim.Config)
	}{
		{"1MB/core", func(c *sim.Config) { c.SliceKB = base / 2 }},
		{"2MB/core", func(c *sim.Config) {}},
		{"4MB/core", func(c *sim.Config) { c.SliceKB = base * 2 }},
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "paper shape: Drishti's edge holds across sizes, best at 2 MB/core")
	return nil
}

// Fig21L2Size reproduces Fig 21: sensitivity to the L2 size (0.5, 1, 2 MB
// at paper scale). Large L2s absorb the working set and shrink everyone's
// headroom.
func Fig21L2Size(p Params, w io.Writer) error {
	header(w, "fig21", "L2 size sensitivity (16 cores)", p)
	base := p.config(16).L2KB
	err := sensitivitySweep(p, w, []struct {
		label string
		edit  func(*sim.Config)
	}{
		{"0.5MB L2", func(c *sim.Config) {}},
		{"1MB L2", func(c *sim.Config) { c.L2KB = base * 2 }},
		{"2MB L2", func(c *sim.Config) { c.L2KB = base * 4 }},
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "paper shape: gains shrink as L2 grows (working sets start fitting in L2)")
	return nil
}

// Fig22DRAMChannels reproduces Fig 22: sensitivity to DRAM channel count on
// 16 cores (2, 4, 8 channels). Fewer channels make LLC misses costlier, so
// replacement quality matters more.
func Fig22DRAMChannels(p Params, w io.Writer) error {
	header(w, "fig22", "DRAM channel sensitivity (16 cores)", p)
	err := sensitivitySweep(p, w, []struct {
		label string
		edit  func(*sim.Config)
	}{
		{"2 channels", func(c *sim.Config) { d := dram.DefaultConfig(16); d.Channels = 2; c.DRAM = d }},
		{"4 channels", func(c *sim.Config) { d := dram.DefaultConfig(16); d.Channels = 4; c.DRAM = d }},
		{"8 channels", func(c *sim.Config) { d := dram.DefaultConfig(16); d.Channels = 8; c.DRAM = d }},
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "paper shape: biggest gains at 2 channels; gains shrink at 8")
	return nil
}

// Fig23Prefetchers reproduces Fig 23: Drishti under five state-of-the-art
// prefetcher configurations (each normalized to an LRU baseline running the
// same prefetchers).
func Fig23Prefetchers(p Params, w io.Writer) error {
	header(w, "fig23", "Drishti with state-of-the-art prefetchers (16 cores)", p)
	err := sensitivitySweep(p, w, []struct {
		label string
		edit  func(*sim.Config)
	}{
		{"nl+ip-stride", func(c *sim.Config) {}},
		{"spp(+ppf)", func(c *sim.Config) { c.L2Prefetcher = "spp" }},
		{"bingo", func(c *sim.Config) { c.L2Prefetcher = "bingo" }},
		{"ipcp", func(c *sim.Config) { c.L1Prefetcher = "ipcp"; c.L2Prefetcher = "ipcp" }},
		{"berti", func(c *sim.Config) { c.L1Prefetcher = "berti"; c.L2Prefetcher = "berti" }},
		{"gaze", func(c *sim.Config) { c.L2Prefetcher = "gaze" }},
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "paper shape: gains persist under every prefetcher; highly accurate ones (spp/berti) shrink the headroom")
	return nil
}
