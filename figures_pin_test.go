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

// Three figure sets on one Context render the same bytes as the pinned
// ones and hold every claim: what a Context computes once (the Pricers,
// the input-free ablation numbers) changes nothing a later set prints,
// and a caller that edits a returned Figure does not reach the next set.
func TestFigureSetRepeatable(t *testing.T) {
	ctx := loadRealTraces(t, true)
	const (
		allSHA       = "c7fb75a93602983243d805a5367d9f0a5ae94fe6426d38eaa9f6ab6ee1933227"
		ablationsSHA = "074e6be5f9d556afb875cbe63b5064942340f7fb1d114de8974c968d29538f21"
		claims       = 19
	)
	var first []byte
	for set := 0; set < 3; set++ {
		figs, err := ctx.All()
		if err != nil {
			t.Fatal(err)
		}
		abl, err := ctx.Ablations()
		if err != nil {
			t.Fatal(err)
		}
		held, total, failures, err := ctx.CheckClaims()
		if err != nil {
			t.Fatal(err)
		}
		if held != claims || total != claims {
			t.Errorf("set %d: claims %d/%d, want %d/%d: %v", set, held, total, claims, claims, failures)
		}
		allText, ablText := renderFigures(t, figs), renderFigures(t, abl)
		for _, c := range []struct {
			name string
			text []byte
			want string
		}{{"All", allText, allSHA}, {"Ablations", ablText, ablationsSHA}} {
			sum := sha256.Sum256(c.text)
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("set %d: %s renders to sha256 %s, pinned %s", set, c.name, got, c.want)
			}
		}
		text := append(allText, ablText...)
		if set == 0 {
			first = text
		} else if !bytes.Equal(text, first) {
			t.Errorf("set %d renders %d bytes that differ from the first set's %d", set, len(text), len(first))
		}
		// Deface every returned ablation table; the next set must not
		// see it.
		for _, f := range abl {
			f.Caption = "defaced"
			for _, tb := range f.Tables {
				tb.Title = "defaced"
				for _, row := range tb.Rows {
					for i := range row {
						row[i] = "defaced"
					}
				}
				tb.Rows = append(tb.Rows, []string{"defaced"})
			}
		}
	}
}
