package tardir

import (
	"archive/tar"
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taskvine/internal/hashing"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	src := t.TempDir()
	os.MkdirAll(filepath.Join(src, "bin"), 0o755)
	os.MkdirAll(filepath.Join(src, "lib", "deep"), 0o755)
	os.WriteFile(filepath.Join(src, "bin", "tool"), []byte("#!exe"), 0o755)
	os.WriteFile(filepath.Join(src, "lib", "deep", "data"), []byte("content"), 0o644)
	os.WriteFile(filepath.Join(src, "README"), []byte("docs"), 0o644)
	os.Symlink("bin/tool", filepath.Join(src, "tool-link"))

	blob, err := Pack(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "restored")
	if err := Unpack(bytes.NewReader(blob), dst); err != nil {
		t.Fatal(err)
	}

	// Content identity via the same Merkle hash used for cache names.
	// Symlinks aren't covered by HashTree file hashing (it follows Lstat),
	// so compare files directly.
	for _, f := range []string{"bin/tool", "lib/deep/data", "README"} {
		a, err := os.ReadFile(filepath.Join(src, f))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dst, f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs after round trip", f)
		}
	}
	link, err := os.Readlink(filepath.Join(dst, "tool-link"))
	if err != nil || link != "bin/tool" {
		t.Fatalf("symlink = %q err=%v", link, err)
	}
	// Executable bit preserved.
	info, _ := os.Stat(filepath.Join(dst, "bin", "tool"))
	if info.Mode().Perm()&0o100 == 0 {
		t.Fatal("executable bit lost")
	}
}

func TestPackDeterministicContent(t *testing.T) {
	mk := func() string {
		d := t.TempDir()
		os.WriteFile(filepath.Join(d, "a"), []byte("1"), 0o644)
		os.MkdirAll(filepath.Join(d, "s"), 0o755)
		os.WriteFile(filepath.Join(d, "s", "b"), []byte("2"), 0o644)
		return d
	}
	d1, d2 := mk(), mk()
	// The tars themselves may differ in timestamps, but unpacking must
	// produce Merkle-identical trees.
	b1, err := Pack(d1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Pack(d2)
	if err != nil {
		t.Fatal(err)
	}
	r1 := filepath.Join(t.TempDir(), "r1")
	r2 := filepath.Join(t.TempDir(), "r2")
	if err := Unpack(bytes.NewReader(b1), r1); err != nil {
		t.Fatal(err)
	}
	if err := Unpack(bytes.NewReader(b2), r2); err != nil {
		t.Fatal(err)
	}
	h1, err := hashing.HashTree(r1)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := hashing.HashTree(r2)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("round-tripped trees hash differently")
	}
}

func TestUnpackRejectsTraversal(t *testing.T) {
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	tw.WriteHeader(&tar.Header{Name: "../escape", Mode: 0o644, Size: 4})
	tw.Write([]byte("evil"))
	tw.Close()
	if err := Unpack(bytes.NewReader(buf.Bytes()), t.TempDir()); err == nil {
		t.Fatal("path traversal accepted")
	}

	buf.Reset()
	tw = tar.NewWriter(&buf)
	tw.WriteHeader(&tar.Header{Name: "/abs", Mode: 0o644, Size: 1})
	tw.Write([]byte("x"))
	tw.Close()
	if err := Unpack(bytes.NewReader(buf.Bytes()), t.TempDir()); err == nil {
		t.Fatal("absolute path accepted")
	}
}

func TestUnpackEmptyArchive(t *testing.T) {
	var buf bytes.Buffer
	tar.NewWriter(&buf).Close()
	dst := filepath.Join(t.TempDir(), "empty")
	if err := Unpack(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dst); err != nil {
		t.Fatal("destination not created")
	}
}

func TestUnpackTruncatedArchive(t *testing.T) {
	src := t.TempDir()
	os.WriteFile(filepath.Join(src, "f"), bytes.Repeat([]byte("x"), 4096), 0o644)
	blob, err := Pack(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Unpack(io.LimitReader(bytes.NewReader(blob), int64(len(blob)/2)), t.TempDir()); err == nil {
		t.Fatal("truncated archive accepted")
	}
}

func TestPackMissingDir(t *testing.T) {
	if _, err := Pack(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing directory packed")
	}
}

// symlinkArchives returns two archives that write outside their
// destination through a symlink they create, when the destination is
// root/dst and root/outside holds a file named victim: one through a
// symlinked parent directory, one through a symlinked regular-file name.
func symlinkArchives(t testing.TB) [][]byte {
	t.Helper()
	build := func(hdrs ...*tar.Header) []byte {
		var buf bytes.Buffer
		tw := tar.NewWriter(&buf)
		for _, h := range hdrs {
			if err := tw.WriteHeader(h); err != nil {
				t.Fatal(err)
			}
			if h.Size > 0 {
				if _, err := tw.Write(bytes.Repeat([]byte("!"), int(h.Size))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	return [][]byte{
		build(
			&tar.Header{Name: "a", Typeflag: tar.TypeSymlink, Linkname: "../outside", Mode: 0o777},
			&tar.Header{Name: "a/x", Typeflag: tar.TypeReg, Mode: 0o644, Size: 5},
		),
		build(
			&tar.Header{Name: "b", Typeflag: tar.TypeSymlink, Linkname: "../outside/victim", Mode: 0o777},
			&tar.Header{Name: "b", Typeflag: tar.TypeReg, Mode: 0o644, Size: 5},
		),
	}
}

// unpackJailed unpacks archive into root/dst beside root/outside/victim
// and fails the test if anything outside dst was created or written.
func unpackJailed(t *testing.T, archive []byte) error {
	t.Helper()
	root := t.TempDir()
	dst := filepath.Join(root, "dst")
	outside := filepath.Join(root, "outside")
	if err := os.MkdirAll(outside, 0o755); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(outside, "victim")
	if err := os.WriteFile(victim, []byte("untouched"), 0o644); err != nil {
		t.Fatal(err)
	}
	unpackErr := Unpack(bytes.NewReader(archive), dst)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch {
		case path == root, path == outside, path == victim, path == dst:
		case strings.HasPrefix(path, dst+string(filepath.Separator)):
		default:
			t.Errorf("unpack created %s outside its destination", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(victim); err != nil || string(b) != "untouched" {
		t.Errorf("unpack wrote through to %s: %q, %v", victim, b, err)
	}
	return unpackErr
}

func TestUnpackRefusesWritesThroughSymlinks(t *testing.T) {
	for i, archive := range symlinkArchives(t) {
		if err := unpackJailed(t, archive); err == nil {
			t.Errorf("archive %d: unpack through a symlink returned nil", i)
		}
	}
}

func TestUnpackKeepsSymlinksInsideTree(t *testing.T) {
	src := t.TempDir()
	os.MkdirAll(filepath.Join(src, "lib"), 0o755)
	os.WriteFile(filepath.Join(src, "lib", "libx.so.1"), []byte("elf"), 0o644)
	if err := os.Symlink("libx.so.1", filepath.Join(src, "lib", "libx.so")); err != nil {
		t.Fatal(err)
	}
	blob, err := Pack(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	if err := Unpack(bytes.NewReader(blob), dst); err != nil {
		t.Fatal(err)
	}
	if link, err := os.Readlink(filepath.Join(dst, "lib", "libx.so")); err != nil || link != "libx.so.1" {
		t.Fatalf("symlink inside the tree = %q, %v", link, err)
	}
}

func TestUnpackRefusesSparseEntry(t *testing.T) {
	// The tar writer refuses GNU.sparse records, so write them under a
	// stand-in key of the same length and patch the key in afterwards. The
	// entry's data is its sparse map, one empty fragment at offset zero,
	// padded to a block.
	sparseMap := make([]byte, 512)
	copy(sparseMap, "1\n0\n0\n")
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	tw.WriteHeader(&tar.Header{
		Name: "holes", Typeflag: tar.TypeReg, Mode: 0o644, Size: int64(len(sparseMap)), Format: tar.FormatPAX,
		PAXRecords: map[string]string{"GNU.sparsX.major": "1", "GNU.sparsX.minor": "0", "GNU.sparsX.realsize": "1048576"},
	})
	tw.Write(sparseMap)
	tw.Close()
	archive := bytes.ReplaceAll(buf.Bytes(), []byte("GNU.sparsX."), []byte("GNU.sparse."))
	dst := t.TempDir()
	if err := Unpack(bytes.NewReader(archive), dst); err == nil {
		info, _ := os.Stat(filepath.Join(dst, "holes"))
		t.Fatalf("sparse entry accepted (unpacked as %v)", info)
	}
}

// FuzzUnpack feeds arbitrary bytes to Unpack: whatever it makes of them,
// every path it creates lies under its destination and no file outside
// is written.
func FuzzUnpack(f *testing.F) {
	for _, archive := range symlinkArchives(f) {
		f.Add(archive)
	}
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	tw.WriteHeader(&tar.Header{Name: "d/", Typeflag: tar.TypeDir, Mode: 0o755})
	tw.WriteHeader(&tar.Header{Name: "d/f", Typeflag: tar.TypeReg, Mode: 0o644, Size: 2})
	tw.Write([]byte("ok"))
	tw.WriteHeader(&tar.Header{Name: "d/l", Typeflag: tar.TypeSymlink, Linkname: "f"})
	tw.Close()
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, archive []byte) {
		unpackJailed(t, archive)
	})
}
