package policies

import (
	"fmt"
	"strings"
)

// Key returns a stable identity string for the spec, suitable for store
// cell keys. A %+v rendering is not: the optional fields are pointers,
// so two specs equal in every resolved knob — built by different call
// sites — would render as distinct addresses and never share a cache
// entry. Key dereferences every pointer (encoding nil distinctly from
// any set value, since nil means "policy default") and delimits slice
// elements so neighboring fields cannot run together.
func (s Spec) Key() string {
	var b strings.Builder
	b.WriteString("name=")
	b.WriteString(s.Name)
	fmt.Fprintf(&b, "|drishti=%t", s.Drishti)
	if s.Placement != nil {
		fmt.Fprintf(&b, "|place=%d", *s.Placement)
	} else {
		b.WriteString("|place=nil")
	}
	if s.UseNocstar != nil {
		fmt.Fprintf(&b, "|nocstar=%t", *s.UseNocstar)
	} else {
		b.WriteString("|nocstar=nil")
	}
	fmt.Fprintf(&b, "|predlat=%d", s.FixedPredLatency)
	if s.DynamicSampler != nil {
		fmt.Fprintf(&b, "|dsc=%t", *s.DynamicSampler)
	} else {
		b.WriteString("|dsc=nil")
	}
	fmt.Fprintf(&b, "|ssets=%d", s.SampledSets)
	b.WriteString("|fixed=")
	writeInts(&b, s.FixedSampledSets)
	b.WriteString("|perslice=")
	for i, sets := range s.FixedPerSlice {
		if i > 0 {
			b.WriteByte(';')
		}
		writeInts(&b, sets)
	}
	return b.String()
}

func writeInts(b *strings.Builder, xs []int) {
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%d", x)
	}
}
