package engine

import (
	"bytes"
	"testing"
)

// FuzzJournalManifest is the journal manifest's fuzz target. The invariant
// under arbitrary input: decodeJournalManifest either returns an error —
// never panics — or returns a manifest whose encoding is a fixed point of
// the codec (decode ∘ encode is the identity on accepted manifests).
func FuzzJournalManifest(f *testing.F) {
	var valid bytes.Buffer
	want := journalManifest{Codec: JournalCodec, Label: "journal-sweep", JobHash: 0xfeedface12345678, Points: 4}
	if err := writeIndentedJSON(&valid, want); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(`{"codec": "ndjournal/1", "label": "journal-sweep", "job_hash": 1234, "points": 4}`))
	f.Add(append(append([]byte(nil), valid.Bytes()...), `{"junk": 1}`...))                           // trailing data
	f.Add([]byte(`{"codec": "ndjournal/2", "label": "x", "job_hash": 1, "points": 1, "stream": 0}`)) // unknown key

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeJournalManifest(data)
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := writeIndentedJSON(&enc, m); err != nil {
			t.Fatalf("encoding an accepted manifest: %v", err)
		}
		again, err := decodeJournalManifest(enc.Bytes())
		if err != nil {
			t.Fatalf("re-decoding an encoded manifest: %v\n%s", err, enc.Bytes())
		}
		if again != m {
			t.Fatalf("decode ∘ encode changed the manifest: %+v → %+v", m, again)
		}
		var enc2 bytes.Buffer
		if err := writeIndentedJSON(&enc2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", enc.Bytes(), enc2.Bytes())
		}
	})
}
