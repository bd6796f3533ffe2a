package mill

import (
	"fmt"

	"packetmill/internal/telemetry"
)

// Profile is the feedback half of the mill: a digest of a telemetry
// report keyed by element instance name, consumed by the profile-guided
// passes (FuseElements, CompileClassifiers, HotLayout). Cycles drive
// layout and share attribution; Packets drive branch ordering.
type Profile struct {
	// Cycles maps element instance name to busy cycles attributed to it
	// (summed across stages and cores).
	Cycles map[string]float64
	// Packets maps element instance name to packets it reported moving.
	Packets map[string]uint64
	// TotalCycles is the sum over all elements.
	TotalCycles float64
}

// FromReport digests a telemetry report into a Profile.
func FromReport(r *telemetry.Report) *Profile {
	p := &Profile{
		Cycles:  map[string]float64{},
		Packets: map[string]uint64{},
	}
	for _, e := range r.Elements {
		p.Cycles[e.Name] += e.Cycles
		p.Packets[e.Name] += e.Packets
		p.TotalCycles += e.Cycles
	}
	return p
}

// LoadProfile parses a JSON telemetry report (as written by -report json
// or snapshotted from /report) into a Profile.
func LoadProfile(data []byte) (*Profile, error) {
	r, err := telemetry.LoadReport(data)
	if err != nil {
		return nil, err
	}
	if len(r.Elements) == 0 {
		return nil, fmt.Errorf("mill: report has no per-element attribution (was the run telemetered?)")
	}
	return FromReport(r), nil
}

// Weight returns the profile's relative cost for one element: cycles when
// attributed, otherwise packets (so a profile from a packet-count-only
// source still orders elements), otherwise zero.
func (p *Profile) Weight(name string) float64 {
	if p == nil {
		return 0
	}
	if c := p.Cycles[name]; c > 0 {
		return c
	}
	return float64(p.Packets[name])
}

// Saw reports whether the profile observed the element moving traffic.
func (p *Profile) Saw(name string) bool {
	return p != nil && (p.Packets[name] > 0 || p.Cycles[name] > 0)
}

// ProfileGuided returns the profile-guided pass pipeline (run after the
// static PacketMill passes). The profile may be nil: fusion and
// classifier compilation then fall back to structural heuristics (fuse
// every matching chain, keep declared rule order) and HotLayout becomes a
// no-op. CompileClassifiers runs before FuseElements so per-port match
// frequencies resolve against the original downstream instance names the
// profile knows.
func ProfileGuided(prof *Profile) []Pass {
	return []Pass{
		HotLayout{Profile: prof},
		CompileClassifiers{Profile: prof},
		FuseElements{Profile: prof},
	}
}
