package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"airshed/internal/core"
	"airshed/internal/vm"
)

const rowKey = "specs/x.spec"

// rowOf is the row a scheduler would write for res: its pricing, one
// prefix per hour of its trace.
func rowOf(t testing.TB, res *core.Result) *SpecManifest {
	t.Helper()
	row := &SpecManifest{Spec: []byte(`{"dataset":"mini","machine":"t3e","nodes":2,"hours":1}`)}
	for i := range res.Trace.Hours {
		row.PrefixHashes = append(row.PrefixHashes, strings.Repeat(string(rune('a'+i)), 64))
	}
	if err := row.SetPricing(res); err != nil {
		t.Fatal(err)
	}
	return row
}

// mustFrame frames a manifest the way PutManifest does, unvalidated.
func mustFrame(t testing.TB, m *SpecManifest) []byte {
	t.Helper()
	blob, err := encodeEnvelope(m)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// storeRun lays res out the way a scheduler does — one record and one
// checkpoint per hour, then the row — and returns the row.
func storeRun(t testing.TB, s *Store, specHash string, res *core.Result) *SpecManifest {
	t.Helper()
	row := rowOf(t, res)
	sh := res.Trace.Shape
	for i, ph := range row.PrefixHashes {
		rec := &PhysicsRecord{
			Trace:          &core.Trace{Dataset: res.Trace.Dataset, Shape: sh, Hours: res.Trace.Hours[i : i+1]},
			HourlyPeakO3:   res.HourlyPeakO3[i : i+1],
			HourlyPeakCell: res.HourlyPeakCell[i : i+1],
		}
		if err := s.PutRecord(ph, rec); err != nil {
			t.Fatal(err)
		}
		// Only the last checkpoint's content matters here.
		if err := s.PutCheckpoint(ph, i, sh.Species, sh.Layers, sh.Cells, res.Final); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutManifest(specHash, row); err != nil {
		t.Fatal(err)
	}
	return row
}

// A row's bytes are a function of its content: the result's maps are
// flattened in category and kind order, not in the order gob would find
// them, so the same pricing encodes to the same blob however its maps
// were built.
func TestRowBytesAreAFunctionOfContent(t *testing.T) {
	res := testResult(t)
	want := mustFrame(t, rowOf(t, res))
	for i := 0; i < 64; i++ {
		// Fresh maps each time: Go randomises iteration per map, and a map
		// filled in another order lays its buckets out differently too.
		again := *res
		again.Ledger.ByCat = map[vm.Category]float64{}
		cats := vm.Categories()
		for j := len(cats) - 1; j >= 0; j-- {
			again.Ledger.ByCat[cats[j]] = res.Ledger.ByCat[cats[j]]
		}
		again.CommSeconds, again.RedistCounts = map[string]float64{}, map[string]int{}
		kinds := core.RedistKinds()
		for j := range kinds {
			k := kinds[(j+i)%len(kinds)]
			if n, ok := res.RedistCounts[k]; ok {
				again.CommSeconds[k], again.RedistCounts[k] = res.CommSeconds[k], n
			}
		}
		if got := mustFrame(t, rowOf(t, &again)); !bytes.Equal(got, want) {
			t.Fatalf("encoding %d of one row differs from the first (%d vs %d bytes)", i, len(got), len(want))
		}
	}
	back, err := decodeRow(want)
	if err != nil {
		t.Fatal(err)
	}
	var priced core.Result
	back.price(&priced)
	if !reflect.DeepEqual(back, rowOf(t, res)) || !reflect.DeepEqual(priced.Ledger, res.Ledger) ||
		!reflect.DeepEqual(priced.CommSeconds, res.CommSeconds) || !reflect.DeepEqual(priced.RedistCounts, res.RedistCounts) {
		t.Errorf("row did not round-trip:\n got  %+v\n want %+v", back, rowOf(t, res))
	}
	t.Logf("mini row: %d bytes", len(want))
}

// Half a pricing is refused at the writer, and a blob holding one — sealed
// under a valid CRC — at the reader.
func TestRowRefusesPartialPricing(t *testing.T) {
	res := testResult(t)
	for name, damage := range map[string]func(r *core.Result){
		"no nodes":                 func(r *core.Result) { r.Ledger.Nodes = 0 },
		"no machine":               func(r *core.Result) { r.Ledger.Machine = "" },
		"utilization of two nodes": func(r *core.Result) { r.Ledger.Nodes = 3 },
	} {
		bad := *res
		damage(&bad)
		if err := (&SpecManifest{PrefixHashes: []string{"p1"}}).SetPricing(&bad); err == nil {
			t.Errorf("%s: priced", name)
		}
	}

	for name, damage := range map[string]func(m *SpecManifest){
		"no physics prefixes":       func(m *SpecManifest) { m.PrefixHashes = nil },
		"no machine":                func(m *SpecManifest) { m.Machine = "" },
		"no nodes":                  func(m *SpecManifest) { m.Nodes = 0 },
		"negative nodes":            func(m *SpecManifest) { m.Nodes = -2 },
		"empty ledger":              func(m *SpecManifest) { m.ByCat = nil },
		"short ledger":              func(m *SpecManifest) { m.ByCat = m.ByCat[:3] },
		"utilization of other size": func(m *SpecManifest) { m.NodeUtilization = m.NodeUtilization[:1] },
		"kinds without counts":      func(m *SpecManifest) { m.RedistCounts = nil },
		"only an efficiency": func(m *SpecManifest) {
			*m = SpecManifest{Spec: m.Spec, PrefixHashes: m.PrefixHashes, Efficiency: 0.5}
		},
	} {
		row := rowOf(t, res)
		damage(row)
		b := NewMemBackend()
		s, err := OpenBackend(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		if s.PutManifest("x", row) == nil {
			t.Errorf("%s: written", name)
		}
		blob := mustFrame(t, row)
		if _, err := decodeRow(blob); err == nil {
			t.Errorf("%s: decoded", name)
		}
		if VerifyBlob(rowKey, blob) == nil {
			t.Errorf("%s: scrub verification accepted it", name)
		}
		if err := s.PutBlob(rowKey, blob); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.GetManifest("x"); ok {
			t.Errorf("%s: served", name)
		}
		if q, ok := b.Quarantined(rowKey); !ok || !bytes.Equal(q, blob) {
			t.Errorf("%s: not preserved in quarantine", name)
		}
	}
}

// testdata/manifest_unpriced.spec is the manifest the commit before rows
// wrote for mini/t3e/2/1h: spec and prefixes, no pricing. It must keep
// decoding — it is the repair map of every store written until then.
func TestUnpricedManifestFixtureStillReads(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "manifest_unpriced.spec"))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBlob(rowKey, blob); err != nil {
		t.Fatal(err)
	}
	m, err := decodeRow(blob)
	if err != nil {
		t.Fatal(err)
	}
	if m.Priced() || !bytes.Contains(m.Spec, []byte(`"dataset":"mini"`)) || len(m.PrefixHashes) != 1 || len(m.PrefixHashes[0]) != 64 {
		t.Errorf("fixture decoded to %+v", m)
	}
	// Next to a whole result it changes nothing: the frame is served.
	b := NewMemBackend()
	if err := b.Put(rowKey, blob); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(blobKey, mustEncode(t, testResult(t))); err != nil {
		t.Fatal(err)
	}
	s, err := OpenBackend(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s.GetResult("x"); !ok || !sameBits(got.Final, testResult(t).Final) {
		t.Error("a whole result beside an unpriced manifest was not served")
	}
}

// GetResult joins a row with the records and end-of-run checkpoint it
// names; without any one of them it misses, it never serves a part.
func TestGetResultJoinsRowAndPhysics(t *testing.T) {
	res := testResult(t)
	b := NewMemBackend()
	s, err := OpenBackend(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	row := storeRun(t, s, "x", res)
	got, ok := s.GetResult("x")
	if !ok {
		t.Fatal("row with its physics missed")
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("assembled result differs from the run's:\n got  %+v\n want %+v", got, res)
	}
	if c := s.Counters(); c.Hits != 3 || c.Misses != 0 { // row, record, checkpoint
		t.Errorf("counters %+v, want three clean hits", c)
	}
	if _, ok := s.GetResult("absent"); ok {
		t.Error("absent result served")
	}
	if _, ok := s.GetResult("../escape"); ok {
		t.Error("result served for an invalid hash")
	}
	if c := s.Counters(); c.Misses != 1 {
		t.Errorf("an absent result and an invalid hash booked %d misses, want 1", c.Misses)
	}

	last := row.PrefixHashes[len(row.PrefixHashes)-1]
	for _, key := range []string{"records/" + row.PrefixHashes[0] + ".rec", "checkpoints/" + last + ".snap"} {
		blob, err := b.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.DeleteBlob(key); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.GetResult("x"); ok {
			t.Errorf("row served without %s", key)
		}
		if err := s.PutBlob(key, blob); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.GetResult("x"); !ok {
			t.Errorf("row not served once %s was back", key)
		}
	}
	// A checkpoint of the wrong shape under the right key is no physics.
	if err := s.PutCheckpoint(last, 0, 1, 1, 3, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetResult("x"); ok {
		t.Error("row served with a 3-float end-of-run checkpoint")
	}
}

// FuzzRowEnvelope: whatever the bytes, read path and scrub path agree
// without panicking; a rejected row is quarantined intact; an accepted one
// is whole or unpriced — never a pricing with an empty ledger or no
// physics to name — and re-encodes to an equal row.
func FuzzRowEnvelope(f *testing.F) {
	tiny := &SpecManifest{
		Spec: []byte(`{"dataset":"mini"}`), PrefixHashes: []string{"p1"},
		Machine: "t3e", Nodes: 2, Total: 1.5, ByCat: []float64{1, 0.25, 0.125, 0.125, 0, 0, 0},
		NodeUtilization: []float64{0.75, 0.5}, Efficiency: 0.625,
		CommSeconds: []float64{0, 0.125, 0, 0}, RedistCounts: []int{0, 3, 0, 0},
	}
	if err := tiny.validate(); err != nil {
		f.Fatal(err)
	}
	hollow := *tiny
	hollow.PrefixHashes, hollow.ByCat = nil, nil
	for _, m := range []*SpecManifest{tiny, {Spec: tiny.Spec, PrefixHashes: tiny.PrefixHashes}, &hollow} {
		good := mustFrame(f, m)
		f.Add(good)
		f.Add(good[:len(good)/2])
		flipped := bytes.Clone(good)
		flipped[len(flipped)-12] ^= 0x10
		f.Add(flipped)
		f.Add(append(bytes.Clone(good), "garbage"...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, blob := range [][]byte{data, reseal(data)} {
			verr := VerifyBlob(rowKey, blob)
			b := NewMemBackend()
			if err := b.Put(rowKey, blob); err != nil {
				t.Fatal(err)
			}
			s, err := OpenBackend(b, 0)
			if err != nil {
				t.Fatal(err)
			}
			m, ok := s.GetManifest("x")
			if ok != (verr == nil) {
				t.Fatalf("GetManifest ok=%v but VerifyBlob says %v", ok, verr)
			}
			if !ok {
				if q, held := b.Quarantined(rowKey); !held || !bytes.Equal(q, blob) {
					t.Fatal("rejected blob not preserved in quarantine")
				}
				continue
			}
			if m.Priced() {
				if m.Machine == "" || len(m.ByCat) == 0 || len(m.PrefixHashes) == 0 || len(m.NodeUtilization) != m.Nodes {
					t.Fatalf("accepted a priced row with an empty ledger or no prefixes: %+v", m)
				}
				m.price(new(core.Result)) // must not panic on anything accepted
			} else if len(m.ByCat)+len(m.NodeUtilization)+len(m.CommSeconds)+len(m.RedistCounts) != 0 || m.Efficiency != 0 || m.Total != 0 || m.Machine != "" {
				t.Fatalf("accepted pricing fields on an unpriced manifest: %+v", m)
			}
			// Compared as bytes: a NaN second is not DeepEqual to itself.
			if err := s.PutManifest("again", m); err != nil {
				t.Fatalf("accepted row does not store again: %v", err)
			}
			again, err := b.Get("specs/again.spec")
			if err != nil {
				t.Fatal(err)
			}
			if back, err := decodeRow(again); err != nil || !bytes.Equal(mustFrame(t, back), again) {
				t.Fatalf("accepted row re-encodes differently (err %v): %+v", err, m)
			}
		}
	})
}
