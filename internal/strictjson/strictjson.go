// Package strictjson is the one strict reader of JSON documents from
// outside the program — spec files, snapshots, journal manifests, daemon
// requests, the lint config. A typo'd key must not silently vanish, and a
// bad concatenation or merge artifact after the document must not be
// silently dropped.
package strictjson

import (
	"encoding/json"
	"errors"
	"io"
)

// Decode reads exactly one JSON document from r into v. Unknown object
// keys are rejected, and so is anything but whitespace after the document.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON document")
	}
	return nil
}
