// Package machine defines parameterised profiles of the distributed-memory
// parallel computers used in the IPPS'98 Airshed paper: the Intel Paragon
// XP/S, the Cray T3D and the Cray T3E, plus a profile describing the real Go
// host for wall-clock runs.
//
// A profile captures exactly the quantities the paper's performance model
// (Section 4) needs:
//
//   - the per-node rate of executing the application's floating point work,
//   - the communication parameters of the cost equation
//     Ct = L*m + G*b + H*c
//     where m is the number of messages, b the number of bytes communicated
//     and c the number of bytes locally copied, and
//   - the machine word size W in bytes.
//
// The T3E parameters are the ones the paper measured (Section 4.3):
// L = 5.2e-5 s/message, G = 2.47e-8 s/byte, H = 2.04e-8 s/byte, W = 8.
// The Paragon and T3D profiles are derived from the paper's reported
// relative machine speeds (the T3D is "just under a factor of 2" and the
// T3E "approximately a factor of 10" faster than the Paragon) and from
// era-appropriate interconnect characteristics; they are documented per
// profile below and in DESIGN.md.
package machine

import (
	"fmt"
	"sort"
)

// Profile describes one target machine for the virtual bulk-synchronous
// machine in package vm. All times are in seconds.
type Profile struct {
	// Name identifies the machine in reports ("Cray T3E").
	Name string

	// FlopTime is the time one node takes to execute one unit of
	// application floating point work (seconds per flop). The absolute
	// value calibrates the virtual clock; ratios between profiles
	// reproduce the paper's relative machine speeds.
	FlopTime float64

	// LatencySec is L: per-message latency and startup cost in seconds.
	LatencySec float64

	// ByteSec is G: per-byte cost of data that crosses between nodes,
	// covering copying to/from the interconnect, in seconds per byte.
	ByteSec float64

	// CopySec is H: per-byte cost of purely local copies performed during
	// a logical communication phase (redistribution), in seconds per byte.
	CopySec float64

	// WordSize is W: size of a floating point word in bytes.
	WordSize int

	// IOByteSec is the sequential cost of reading or writing one byte in
	// the I/O processing phases (inputhour, pretrans, outputhour). The
	// paper treats I/O processing as sequential computation; we charge it
	// per byte moved through the hourly snapshot files.
	IOByteSec float64

	// IOFixedSec is a fixed per-hour I/O processing overhead (file open,
	// header parsing, preprocessing setup).
	IOFixedSec float64
}

// Validate reports an error if the profile has non-positive or missing
// parameters. A zero Profile is invalid.
func (p *Profile) Validate() error {
	switch {
	case p == nil:
		return fmt.Errorf("machine: nil profile")
	case p.Name == "":
		return fmt.Errorf("machine: profile has empty name")
	case p.FlopTime <= 0:
		return fmt.Errorf("machine %s: FlopTime must be positive, got %g", p.Name, p.FlopTime)
	case p.LatencySec < 0:
		return fmt.Errorf("machine %s: LatencySec must be non-negative, got %g", p.Name, p.LatencySec)
	case p.ByteSec < 0:
		return fmt.Errorf("machine %s: ByteSec must be non-negative, got %g", p.Name, p.ByteSec)
	case p.CopySec < 0:
		return fmt.Errorf("machine %s: CopySec must be non-negative, got %g", p.Name, p.CopySec)
	case p.WordSize <= 0:
		return fmt.Errorf("machine %s: WordSize must be positive, got %d", p.Name, p.WordSize)
	case p.IOByteSec < 0:
		return fmt.Errorf("machine %s: IOByteSec must be non-negative, got %g", p.Name, p.IOByteSec)
	case p.IOFixedSec < 0:
		return fmt.Errorf("machine %s: IOFixedSec must be non-negative, got %g", p.Name, p.IOFixedSec)
	}
	return nil
}

// CommTime evaluates the paper's communication cost equation
// Ct = L*m + G*b + H*c for m messages, b communicated bytes and c locally
// copied bytes.
func (p *Profile) CommTime(messages int, bytes, copied int64) float64 {
	return p.LatencySec*float64(messages) + p.ByteSec*float64(bytes) + p.CopySec*float64(copied)
}

// ComputeTime converts a number of work units (flops) into seconds on one
// node of this machine.
func (p *Profile) ComputeTime(flops float64) float64 {
	return p.FlopTime * flops
}

// IOTime charges bytes of sequential I/O processing plus the fixed per-call
// overhead.
func (p *Profile) IOTime(bytes int64) float64 {
	return p.IOFixedSec + p.IOByteSec*float64(bytes)
}

// String implements fmt.Stringer.
func (p *Profile) String() string { return p.Name }

// The calibration base: the paper's Paragon runs take roughly 4000 seconds
// for the 24-hour LA simulation on 4 nodes. paragonFlopTime is chosen so
// that our synthetic LA workload lands in that regime; the T3D and T3E
// rates then follow the paper's reported ratios.
const paragonFlopTime = 1.0 / 7.5e6 // ~7.5 Mflop/s sustained per node

// CrayT3E is the Cray T3E profile. Communication parameters are the values
// the paper measured for Fx-generated communication (Section 4.3).
func CrayT3E() *Profile {
	return &Profile{
		Name:       "Cray T3E",
		FlopTime:   paragonFlopTime / 10.0, // paper: ~10x faster than Paragon
		LatencySec: 5.2e-5,
		ByteSec:    2.47e-8,
		CopySec:    2.04e-8,
		WordSize:   8,
		IOByteSec:  6.75e-7,
		IOFixedSec: 0.08,
	}
}

// CrayT3D is the Cray T3D profile. The paper reports it "just under a
// factor of 2" faster than the Paragon; we use 1.9. Latency and bandwidth
// parameters reflect the T3D's shmem-era interconnect: similar latency to
// the T3E's measured value but roughly a third of the per-byte throughput.
func CrayT3D() *Profile {
	return &Profile{
		Name:       "Cray T3D",
		FlopTime:   paragonFlopTime / 1.9,
		LatencySec: 7.5e-5,
		ByteSec:    7.4e-8,
		CopySec:    4.1e-8,
		WordSize:   8,
		IOByteSec:  3.4e-6,
		IOFixedSec: 0.11,
	}
}

// IntelParagon is the Intel Paragon XP/S profile, the slowest of the three:
// i860 nodes with comparatively high message latency under OSF/1 message
// passing.
func IntelParagon() *Profile {
	return &Profile{
		Name:       "Intel Paragon",
		FlopTime:   paragonFlopTime,
		LatencySec: 1.2e-4,
		ByteSec:    1.1e-7,
		CopySec:    5.5e-8,
		WordSize:   8,
		IOByteSec:  6.75e-6,
		IOFixedSec: 0.14,
	}
}

// GoHost is a profile for running the library for real results rather than
// paper-figure reproduction: compute is charged at a nominal modern rate
// and communication is nearly free (shared memory).
func GoHost() *Profile {
	return &Profile{
		Name:       "Go host",
		FlopTime:   1.0 / 1.0e9,
		LatencySec: 1.0e-6,
		ByteSec:    1.0e-10,
		CopySec:    1.0e-10,
		WordSize:   8,
		IOByteSec:  1.0e-9,
		IOFixedSec: 0.001,
	}
}

// registry is read-only after package initialisation.
var registry = map[string]func() *Profile{
	"t3e":     CrayT3E,
	"t3d":     CrayT3D,
	"paragon": IntelParagon,
	"gohost":  GoHost,
}

// ByName returns a fresh profile for a registry key ("t3e", "t3d",
// "paragon" or "gohost").
func ByName(key string) (*Profile, error) {
	ctor, ok := registry[key]
	if !ok {
		return nil, fmt.Errorf("machine: unknown machine %q (known: %v)", key, Names())
	}
	return ctor(), nil
}

// Names returns the sorted registry keys.
func Names() []string {
	keys := make([]string, 0, len(registry))
	for k := range registry {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PaperTrio returns the three machines of the paper's evaluation in the
// order used by Figure 2: T3E, T3D, Paragon.
func PaperTrio() []*Profile {
	return []*Profile{CrayT3E(), CrayT3D(), IntelParagon()}
}
