package airshed

// Byte-level pins of everything the figure engine prints from the real
// 24-hour traces: the EXPERIMENTS.md record and the text `benchfig -ne`
// and `benchfig -ablations` render. A change to how traces are priced
// must leave all three unchanged.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"airshed/internal/figures"
)

// WriteExperiments over the committed traces reproduces the committed
// EXPERIMENTS.md byte for byte.
func TestExperimentsMatchCommitted(t *testing.T) {
	ctx := loadRealTraces(t, true)
	want, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := ctx.WriteExperiments(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteExperiments (%d bytes) differs from EXPERIMENTS.md (%d bytes); regenerate with `go run ./cmd/benchfig -experiments > EXPERIMENTS.md` only if the change is intended",
			got.Len(), len(want))
	}
}

// renderFigures prints figures the way cmd/benchfig does by default:
// header, tables, charts, then Gantt diagrams.
func renderFigures(t *testing.T, figs []*figures.Figure) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, f := range figs {
		fmt.Fprintf(&b, "=== %s ===\n%s\n\n", f.ID, f.Caption)
		for _, tb := range f.Tables {
			if err := tb.Write(&b); err != nil {
				t.Fatal(err)
			}
		}
		for _, ch := range f.Charts {
			if err := ch.Write(&b); err != nil {
				t.Fatal(err)
			}
		}
		for _, g := range f.Gantts {
			if err := g.Write(&b); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Bytes()
}

// The rendered text of every figure (with NE) and every ablation is
// pinned by sha256; `go run ./cmd/benchfig -ne | sha256sum` and
// `go run ./cmd/benchfig -ablations | sha256sum` print the same digests.
func TestFigureRenderPinned(t *testing.T) {
	ctx := loadRealTraces(t, true)
	figs, err := ctx.All()
	if err != nil {
		t.Fatal(err)
	}
	abl, err := ctx.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		figs []*figures.Figure
		want string
	}{
		{"All", figs, "c7fb75a93602983243d805a5367d9f0a5ae94fe6426d38eaa9f6ab6ee1933227"},
		{"Ablations", abl, "074e6be5f9d556afb875cbe63b5064942340f7fb1d114de8974c968d29538f21"},
	} {
		sum := sha256.Sum256(renderFigures(t, c.figs))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s renders to sha256 %s, pinned %s", c.name, got, c.want)
		}
	}
}
