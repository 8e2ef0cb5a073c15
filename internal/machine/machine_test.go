package machine

import (
	"math"
	"strings"
	"testing"
)

func TestProfilesValid(t *testing.T) {
	for _, p := range append(PaperTrio(), GoHost()) {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Profile)
	}{
		{"empty name", func(p *Profile) { p.Name = "" }},
		{"zero flop time", func(p *Profile) { p.FlopTime = 0 }},
		{"negative latency", func(p *Profile) { p.LatencySec = -1 }},
		{"negative byte cost", func(p *Profile) { p.ByteSec = -1 }},
		{"negative copy cost", func(p *Profile) { p.CopySec = -1 }},
		{"zero word size", func(p *Profile) { p.WordSize = 0 }},
		{"negative io byte", func(p *Profile) { p.IOByteSec = -1 }},
		{"negative io fixed", func(p *Profile) { p.IOFixedSec = -1 }},
	}
	for _, c := range cases {
		p := CrayT3E()
		c.mod(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad profile", c.name)
		}
	}
	var nilp *Profile
	if err := nilp.Validate(); err == nil {
		t.Error("nil profile accepted")
	}
}

func TestT3EPaperParameters(t *testing.T) {
	// Section 4.3 of the paper.
	p := CrayT3E()
	if p.LatencySec != 5.2e-5 {
		t.Errorf("L = %g, want 5.2e-5", p.LatencySec)
	}
	if p.ByteSec != 2.47e-8 {
		t.Errorf("G = %g, want 2.47e-8", p.ByteSec)
	}
	if p.CopySec != 2.04e-8 {
		t.Errorf("H = %g, want 2.04e-8", p.CopySec)
	}
	if p.WordSize != 8 {
		t.Errorf("W = %d, want 8", p.WordSize)
	}
}

func TestRelativeMachineSpeeds(t *testing.T) {
	// The paper: T3D just under 2x, T3E ~10x faster than the Paragon.
	paragon, t3d, t3e := IntelParagon(), CrayT3D(), CrayT3E()
	rT3D := paragon.FlopTime / t3d.FlopTime
	rT3E := paragon.FlopTime / t3e.FlopTime
	if rT3D < 1.5 || rT3D > 2.0 {
		t.Errorf("T3D/Paragon speed ratio = %.2f, want just under 2", rT3D)
	}
	if math.Abs(rT3E-10) > 1 {
		t.Errorf("T3E/Paragon speed ratio = %.2f, want ~10", rT3E)
	}
}

func TestCommTime(t *testing.T) {
	p := CrayT3E()
	// One message, 1000 bytes, 500 copied.
	got := p.CommTime(1, 1000, 500)
	want := 5.2e-5 + 2.47e-8*1000 + 2.04e-8*500
	if math.Abs(got-want) > 1e-18 {
		t.Errorf("CommTime = %g, want %g", got, want)
	}
	if p.CommTime(0, 0, 0) != 0 {
		t.Error("zero communication should cost zero")
	}
}

func TestComputeTime(t *testing.T) {
	p := CrayT3E()
	if got := p.ComputeTime(0); got != 0 {
		t.Errorf("ComputeTime(0) = %g", got)
	}
	one := p.ComputeTime(1)
	if got := p.ComputeTime(1e6); math.Abs(got-one*1e6)/got > 1e-12 {
		t.Errorf("ComputeTime not linear: %g vs %g", got, one*1e6)
	}
}

func TestIOTime(t *testing.T) {
	p := IntelParagon()
	if got := p.IOTime(0); got != p.IOFixedSec {
		t.Errorf("IOTime(0) = %g, want fixed %g", got, p.IOFixedSec)
	}
	if p.IOTime(1000) <= p.IOTime(0) {
		t.Error("IOTime must grow with bytes")
	}
}

func TestByName(t *testing.T) {
	if got, want := strings.Join(Names(), ","), "gohost,paragon,t3d,t3e"; got != want {
		t.Errorf("Names() = %s, want %s", got, want)
	}
	for _, key := range Names() {
		p, err := ByName(key)
		if err != nil {
			t.Errorf("ByName(%q): %v", key, err)
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("ByName(%q): invalid profile: %v", key, err)
		}
	}
	if _, err := ByName("connection-machine"); err == nil {
		t.Error("unknown machine accepted")
	} else if !strings.Contains(err.Error(), "unknown machine") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestPaperTrioOrder(t *testing.T) {
	trio := PaperTrio()
	if len(trio) != 3 {
		t.Fatalf("PaperTrio returned %d machines", len(trio))
	}
	if trio[0].Name != "Cray T3E" || trio[1].Name != "Cray T3D" || trio[2].Name != "Intel Paragon" {
		t.Errorf("unexpected order: %v %v %v", trio[0], trio[1], trio[2])
	}
	// Figure 2 ordering: each machine strictly faster than the next.
	if !(trio[0].FlopTime < trio[1].FlopTime && trio[1].FlopTime < trio[2].FlopTime) {
		t.Error("machines not ordered fastest to slowest")
	}
}

func TestStringer(t *testing.T) {
	if got := CrayT3E().String(); got != "Cray T3E" {
		t.Errorf("String() = %q", got)
	}
}
