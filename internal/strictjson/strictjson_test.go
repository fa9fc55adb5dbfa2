package strictjson

import (
	"strings"
	"testing"
)

func TestDecode(t *testing.T) {
	type doc struct {
		A int `json:"a"`
	}
	for _, tc := range []struct {
		in, err string // err: "" accepts, else a substring of the error
	}{
		{`{"a": 1}`, ""},
		{"{\"a\": 1}\n\t ", ""},
		{`{"a": 1, "b": 2}`, `unknown field "b"`},
		{`{"a": 1}{"a": 2}`, "trailing data"},
		{`{"a": 1} x`, "trailing data"},
		{`{"a": 1}]`, "trailing data"},
		{`{"a":`, "unexpected EOF"},
		{``, "EOF"},
	} {
		var d doc
		err := Decode(strings.NewReader(tc.in), &d)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%q: unexpected error %v", tc.in, err)
		case tc.err == "" && d.A != 1:
			t.Errorf("%q: decoded %+v", tc.in, d)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%q: got %v, want an error containing %q", tc.in, err, tc.err)
		}
	}
}
