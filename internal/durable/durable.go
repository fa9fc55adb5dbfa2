// Package durable writes files that survive crashes whole: after WriteFile
// returns nil, the target holds the new bytes even if the process is
// killed or the OS crashes a moment later, and a failure at any step
// leaves the previous target (or none) in place with no temp file behind.
package durable

import (
	"os"
	"path/filepath"
)

// WriteFile replaces path with data. It writes path+".tmp" in the same
// directory, syncs it to stable storage, closes it (checking the error, as
// deferred write-back can report there), renames it over path, and syncs
// the directory so the rename itself is durable. Without the syncs a
// renamed file can come back empty after an OS crash. The temp file is
// removed on every failure path.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir flushes a directory's entries, making a rename into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
