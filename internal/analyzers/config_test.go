package analyzers

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A typo'd section or content after the document must fail the load, not
// silently disable a pass.
func TestLoadConfigIsStrict(t *testing.T) {
	dir := t.TempDir()
	for i, tc := range []struct{ blob, want string }{
		{`{"nodeterminsm": {}}`, "nodeterminsm"},
		{`{"maprange": {"packages": ["..."]}} {"junk": 1}`, "trailing data"},
	} {
		path := filepath.Join(dir, fmt.Sprintf("config-%d.json", i))
		if err := os.WriteFile(path, []byte(tc.blob), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadConfig(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.blob, err, tc.want)
		}
	}
}
