// Package tardir packs directory-valued data objects into tar streams for
// transfer between caches.
//
// TaskVine files may be entire directory hierarchies (unpacked software
// packages, datasets). Plain files move as raw byte streams; directories
// move as tar archives produced by the sending cache and unpacked by the
// receiving cache, preserving the flat-cache invariant that every object is
// one entry under its cache name.
package tardir

import (
	"archive/tar"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Pack archives the tree rooted at dir into an in-memory tar, with all
// entry names relative to dir. Symlinks are preserved as links.
func Pack(dir string) ([]byte, error) {
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		if rel == "." {
			return nil
		}
		link := ""
		if info.Mode()&os.ModeSymlink != 0 {
			if link, err = os.Readlink(path); err != nil {
				return err
			}
		}
		hdr, err := tar.FileInfoHeader(info, link)
		if err != nil {
			return err
		}
		hdr.Name = filepath.ToSlash(rel)
		if info.IsDir() {
			hdr.Name += "/"
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			_, err = io.Copy(tw, f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("tardir: packing %s: %w", dir, err)
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unpack extracts a tar stream into dst, creating it if needed. Entry names
// are validated against path traversal, and an entry is refused when its
// path, or any directory on the way to it below dst, is a symlink: writing
// through one (an archive's symlink `a` to a directory elsewhere, then a
// file `a/x`) would land outside dst. Symlink entries themselves are kept,
// as Pack preserves them. Sparse entries, which Pack never writes and whose
// holes would be written out as zeros, are refused.
func Unpack(r io.Reader, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	tr := tar.NewReader(r)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("tardir: reading archive: %w", err)
		}
		name := filepath.FromSlash(hdr.Name)
		if strings.Contains(name, "..") || filepath.IsAbs(name) {
			return fmt.Errorf("tardir: entry %q escapes destination", hdr.Name)
		}
		if err := noSymlinkOnPath(dst, name); err != nil {
			return fmt.Errorf("tardir: entry %q: %w", hdr.Name, err)
		}
		path := filepath.Join(dst, name)
		switch hdr.Typeflag {
		case tar.TypeDir:
			if err := os.MkdirAll(path, os.FileMode(hdr.Mode)|0o700); err != nil {
				return err
			}
		case tar.TypeSymlink:
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			if err := os.Symlink(hdr.Linkname, path); err != nil {
				return err
			}
		case tar.TypeReg:
			if isSparse(hdr) {
				return fmt.Errorf("tardir: entry %q is sparse", hdr.Name)
			}
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, os.FileMode(hdr.Mode)&0o777)
			if err != nil {
				return err
			}
			if _, err := io.Copy(f, tr); err != nil {
				// The copy error supersedes any close error on this path.
				_ = f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		default:
			// Ignore exotic entry types (devices, fifos, hard links): data
			// objects contain only files, directories, and symlinks.
		}
	}
}

// noSymlinkOnPath reports an error when dst/name, or any directory between
// dst and it, is a symlink. The walk stops at the first component that
// does not exist yet: nothing below it can.
func noSymlinkOnPath(dst, name string) error {
	p := dst
	for _, part := range strings.Split(name, string(filepath.Separator)) {
		if part == "" || part == "." {
			continue
		}
		p = filepath.Join(p, part)
		info, err := os.Lstat(p)
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		if info.Mode()&fs.ModeSymlink != 0 {
			return fmt.Errorf("path passes through symlink %s", p)
		}
	}
	return nil
}

// isSparse reports whether a regular-file header is a GNU sparse file in
// PAX form, which the tar reader expands to its full size.
func isSparse(hdr *tar.Header) bool {
	for k := range hdr.PAXRecords {
		if strings.HasPrefix(k, "GNU.sparse.") {
			return true
		}
	}
	return false
}
