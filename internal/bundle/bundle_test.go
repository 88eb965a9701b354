package bundle

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/cleaning"
	"repro/internal/crf"
	"repro/internal/lstm"
	"repro/internal/mat"
	"repro/internal/tagger"
	"repro/internal/workload"
)

// toySequences builds a learnable toy training set shared by every test in
// the package.
func toySequences(n int) []tagger.Sequence {
	digits := []string{"1", "2", "3", "5", "7"}
	colors := []string{"red", "blue", "pink"}
	rng := mat.NewRNG(11)
	var seqs []tagger.Sequence
	for i := 0; i < n; i++ {
		d := digits[rng.Intn(len(digits))]
		c := colors[rng.Intn(len(colors))]
		seqs = append(seqs,
			tagger.Sequence{
				Tokens: []string{"weight", "is", d, "kg"},
				PoS:    []string{"NN", "PART", "NUM", "UNIT"},
				Labels: []string{"O", "O", "B-weight", "I-weight"},
			},
			tagger.Sequence{
				Tokens: []string{"color", "is", c},
				PoS:    []string{"NN", "PART", "NN"},
				Labels: []string{"O", "O", "B-color"},
			})
	}
	return seqs
}

func trainCRF(t *testing.T) tagger.Model {
	t.Helper()
	m, err := crf.Trainer{Config: crf.Config{MaxIter: 20}}.Fit(toySequences(12))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func trainRNN(t *testing.T) tagger.Model {
	t.Helper()
	cfg := lstm.Config{WordDim: 8, CharDim: 4, CharHidden: 4, WordHidden: 8, Epochs: 1, MinCount: 1, Seed: 3}
	m, err := lstm.Trainer{Config: cfg}.Fit(toySequences(8))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testManifest() Manifest {
	return Manifest{
		Lang:          "ja",
		ModelKind:     "CRF",
		MinConfidence: 0.25,
		Veto:          cleaning.VetoConfig{PopularFraction: 0.8, MaxValueLen: 30},
		Semantic:      SemanticSettings{CoreSize: 6, MinSimilarity: 0.12},
		Seed:          SeedSettings{AggThreshold: 0.3, MinValueFreq: 3, TopShapes: 4, ValuesPerShape: 12},
		Attributes:    []string{"color", "weight"},
		AttrRep:       []AttrMapping{{Surface: "color", Representative: "color"}, {Surface: "colour", Representative: "color"}},
		Provenance: Provenance{
			ConfigFingerprint: "v1|test",
			Iterations:        2,
			TrainingSequences: 24,
			Triples:           57,
			SeedPairs:         9,
		},
	}
}

// Save → Load → Save must produce identical bytes: the acceptance criterion
// that makes the fingerprint a content address.
func TestRoundTripByteStable(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model tagger.Model
	}{
		{"crf", trainCRF(t)},
		{"rnn", trainRNN(t)},
		{"ensemble", &tagger.Ensemble{Members: []tagger.Model{trainCRF(t), trainRNN(t)}, Mode: tagger.Intersection}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := &Bundle{Manifest: testManifest(), Model: tc.model}
			b.Manifest.ModelKind = ModelKindName(tc.model)
			var first bytes.Buffer
			if err := b.Save(&first); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var second bytes.Buffer
			if err := loaded.Save(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("save → load → save changed bytes: %d vs %d", first.Len(), second.Len())
			}
			if b.Fingerprint() != loaded.Fingerprint() {
				t.Fatalf("fingerprint changed across round trip: %s vs %s", b.Fingerprint(), loaded.Fingerprint())
			}
			if loaded.Manifest.Lang != "ja" || loaded.Manifest.ModelKind != b.Manifest.ModelKind {
				t.Fatalf("manifest lost fields: %+v", loaded.Manifest)
			}
			if len(loaded.Manifest.Attributes) != 2 || len(loaded.Manifest.AttrRep) != 2 {
				t.Fatalf("manifest schema lost: %+v", loaded.Manifest)
			}
			if loaded.Manifest.Provenance != b.Manifest.Provenance {
				t.Fatalf("provenance changed: %+v vs %+v", loaded.Manifest.Provenance, b.Manifest.Provenance)
			}
		})
	}
}

// The loaded model must predict exactly what the saved one did.
func TestRoundTripPreservesPredictions(t *testing.T) {
	model := trainCRF(t)
	b := &Bundle{Manifest: testManifest(), Model: model}
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	seq := tagger.Sequence{
		Tokens: []string{"weight", "is", "5", "kg"},
		PoS:    []string{"NN", "PART", "NUM", "UNIT"},
	}
	want := model.Predict(seq)
	got := loaded.Model.Predict(seq)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("prediction changed after round trip: %v vs %v", want, got)
		}
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	b := &Bundle{Manifest: testManifest(), Model: trainCRF(t)}
	path := filepath.Join(t.TempDir(), "model.paeb")
	if err := b.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprint mismatch: %s vs %s", loaded.Fingerprint(), b.Fingerprint())
	}
	info, err := Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Fingerprint != b.Fingerprint() {
		t.Fatalf("Stat fingerprint = %s, want %s", info.Fingerprint, b.Fingerprint())
	}
	if info.Manifest.Lang != "ja" || info.ModelBytes == 0 || info.ManifestBytes == 0 {
		t.Fatalf("Stat lost sections: %+v", info)
	}
	if info.TotalBytes != info.ManifestBytes+info.ModelBytes+int64(len(magic))+4+8+sha256.Size {
		t.Fatalf("section sizes inconsistent: %+v", info)
	}
}

// A bumped schema version must fail with the typed error, not a panic.
func TestLoadRejectsBumpedSchemaVersion(t *testing.T) {
	b := &Bundle{Manifest: testManifest(), Model: trainCRF(t)}
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	binary.BigEndian.PutUint32(raw[4:8], SchemaVersion+1)
	// Re-seal the trailer so only the version differs.
	sum := sha256.Sum256(raw[:len(raw)-sha256.Size])
	copy(raw[len(raw)-sha256.Size:], sum[:])
	_, err := Load(bytes.NewReader(raw))
	if !errors.Is(err, ErrSchemaVersion) {
		t.Fatalf("err = %v, want ErrSchemaVersion", err)
	}
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Got != SchemaVersion+1 || ve.Want != SchemaVersion {
		t.Fatalf("err = %v, want *VersionError{Got:%d,Want:%d}", err, SchemaVersion+1, SchemaVersion)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	b := &Bundle{Manifest: testManifest(), Model: trainCRF(t)}
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[0] = 'X'
		if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[len(bad)/2] ^= 0xFF
		if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, ErrFingerprint) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrFingerprint or ErrCorrupt", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, 10, len(raw) / 2, len(raw) - 1} {
			if _, err := Load(bytes.NewReader(raw[:n])); err == nil {
				t.Fatalf("truncation to %d bytes accepted", n)
			}
		}
	})
}

func TestEncodeModelRejectsUnknownKinds(t *testing.T) {
	var buf bytes.Buffer
	err := EncodeModel(&buf, fakeModel{})
	if !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("err = %v, want ErrUnknownModel", err)
	}
}

type fakeModel struct{}

func (fakeModel) Predict(seq tagger.Sequence) []string { return make([]string, len(seq.Tokens)) }

func TestModelKindName(t *testing.T) {
	if got := ModelKindName(trainCRF(t)); got != "CRF" {
		t.Fatalf("ModelKindName(crf) = %q", got)
	}
	e := &tagger.Ensemble{Members: []tagger.Model{trainCRF(t)}, Mode: tagger.Union}
	if got := ModelKindName(e); got != "ensemble(union)" {
		t.Fatalf("ModelKindName(ensemble) = %q", got)
	}
}

// Fingerprint on a freshly built (never saved) bundle must equal the
// fingerprint after saving — i.e. the lazy computation and the save path
// hash the same canonical bytes.
func TestFingerprintMatchesSave(t *testing.T) {
	b1 := &Bundle{Manifest: testManifest(), Model: trainCRF(t)}
	b2 := &Bundle{Manifest: testManifest(), Model: trainCRF(t)}
	lazy := b1.Fingerprint()
	var buf bytes.Buffer
	if err := b2.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if lazy != b2.Fingerprint() {
		t.Fatalf("lazy fingerprint %s != saved fingerprint %s", lazy, b2.Fingerprint())
	}
}

// Corpus provenance selects the version-3 wire form, round-trips intact, and
// — critically — its absence leaves the written version (and therefore every
// historical fingerprint) untouched.
func TestCorpusProvenanceVersioning(t *testing.T) {
	model := trainCRF(t)
	wireVersionOf := func(b *Bundle) int {
		t.Helper()
		var buf bytes.Buffer
		if err := b.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return int(binary.BigEndian.Uint32(buf.Bytes()[4:8]))
	}

	plain := &Bundle{Manifest: testManifest(), Model: model}
	if v := wireVersionOf(plain); v != schemaV1 {
		t.Fatalf("provenance-free detail-page bundle wrote version %d, want %d", v, schemaV1)
	}

	titled := &Bundle{Manifest: testManifest(), Model: model}
	titled.Manifest.Workload = workload.Title
	if v := wireVersionOf(titled); v != schemaV2 {
		t.Fatalf("provenance-free title bundle wrote version %d, want %d", v, schemaV2)
	}

	prov := CorpusProvenance{Generation: 2, SHA256: "deadbeef", Documents: 80, Shards: 4}
	for _, wk := range []workload.Kind{workload.DetailPage, workload.Title} {
		stamped := &Bundle{Manifest: testManifest(), Model: model}
		stamped.Manifest.Workload = wk
		stamped.Manifest.Corpus = prov
		var buf bytes.Buffer
		if err := stamped.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if v := int(binary.BigEndian.Uint32(buf.Bytes()[4:8])); v != SchemaVersion {
			t.Fatalf("corpus-stamped %s bundle wrote version %d, want %d", wk, v, SchemaVersion)
		}
		loaded, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Manifest.Corpus != prov {
			t.Fatalf("corpus provenance changed across round trip: %+v vs %+v", loaded.Manifest.Corpus, prov)
		}
		if loaded.Manifest.SchemaVersion != SchemaVersion {
			t.Fatalf("loaded SchemaVersion = %d, want %d", loaded.Manifest.SchemaVersion, SchemaVersion)
		}
		if got := loaded.Manifest.Workload.WithDefault(); got != wk.WithDefault() {
			t.Fatalf("workload changed across round trip: %v vs %v", got, wk)
		}
		var second bytes.Buffer
		if err := loaded.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), second.Bytes()) {
			t.Fatal("v3 save → load → save changed bytes")
		}
	}
}

// fuzzSeedBodies returns schema v1, v2 and v3 bundle bodies (no trailer)
// around the tiny crafted CRF, each under 4 KB so the fuzzer keeps its
// throughput.
func fuzzSeedBodies(t testing.TB) [][]byte {
	t.Helper()
	model, err := DecodeModel(bytes.NewReader(wireBytes(t, kindCRF, tinyCRFWire())))
	if err != nil {
		t.Fatal(err)
	}
	v1 := Manifest{Lang: "ja", ModelKind: "CRF", Attributes: []string{"weight"}}
	v2 := v1
	v2.Workload = workload.Title
	v3 := v1
	v3.Corpus = CorpusProvenance{Generation: 1, SHA256: "ab", Documents: 2, Shards: 1}
	var bodies [][]byte
	for i, m := range []Manifest{v1, v2, v3} {
		var buf bytes.Buffer
		if err := (&Bundle{Manifest: m, Model: model}).Save(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		if v := binary.BigEndian.Uint32(raw[4:8]); int(v) != i+1 {
			t.Fatalf("seed %d wrote schema version %d", i+1, v)
		}
		if len(raw) >= 4<<10 {
			t.Fatalf("seed %d is %d bytes, want < 4 KB", i+1, len(raw))
		}
		bodies = append(bodies, raw[:len(raw)-sha256.Size])
	}
	return bodies
}

// loadSealed appends the fingerprint trailer to body and loads the result,
// so every byte of the body reaches the header and manifest decoders.
func loadSealed(body []byte) ([]byte, *Bundle, error) {
	sum := sha256.Sum256(body)
	raw := append(append([]byte(nil), body...), sum[:]...)
	b, err := Load(bytes.NewReader(raw))
	return raw, b, err
}

// A body gob accepts but Save would never write must be refused: it would
// give one content a second fingerprint. Here a detail-page manifest is
// stamped schema 2, which Save only writes for other workloads.
func TestLoadRejectsNonCanonicalEncoding(t *testing.T) {
	v1 := fuzzSeedBodies(t)[0]
	body := append([]byte(nil), v1...)
	binary.BigEndian.PutUint32(body[4:8], schemaV2)
	if _, _, err := loadSealed(body); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if _, _, err := loadSealed(v1); err != nil {
		t.Fatalf("canonical v1 body: %v", err)
	}
}

// FuzzLoadBundle feeds arbitrary bundle bodies, sealed with a matching
// trailer, to Load. It must never panic; a body it accepts must re-save to
// the identical bytes; every failure is one of the typed sentinels.
func FuzzLoadBundle(f *testing.F) {
	for _, body := range fuzzSeedBodies(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		raw, b, err := loadSealed(body)
		if err != nil {
			for _, want := range []error{ErrCorrupt, ErrSchemaVersion, ErrFingerprint, ErrUnknownModel} {
				if errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("untyped load error: %v", err)
		}
		var buf bytes.Buffer
		if err := b.Save(&buf); err != nil {
			t.Fatalf("loaded bundle does not save: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), raw) {
			t.Fatalf("re-save changed the bytes (%d → %d)", len(raw), buf.Len())
		}
	})
}
