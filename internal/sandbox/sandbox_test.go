package sandbox

import (
	"os"
	"path/filepath"
	"testing"

	"taskvine/internal/taskspec"
)

// fakeCache creates a cache directory with the given objects and returns
// the path-mapping function.
func fakeCache(t *testing.T, objects map[string]string) (string, func(string) string) {
	t.Helper()
	dir := t.TempDir()
	for name, content := range objects {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, func(name string) string { return filepath.Join(dir, name) }
}

func TestCreateLinksInputs(t *testing.T) {
	_, cachePath := fakeCache(t, map[string]string{
		"url-db":   "database bytes",
		"file-bin": "binary bytes",
	})
	inputs := []taskspec.Mount{
		{FileID: "url-db", Name: "landmark"},
		{FileID: "file-bin", Name: "bin/blast"},
	}
	s, err := Create(t.TempDir(), "t.1", inputs, nil, cachePath)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()

	got, err := os.ReadFile(filepath.Join(s.Dir, "landmark"))
	if err != nil || string(got) != "database bytes" {
		t.Fatalf("landmark = %q err=%v", got, err)
	}
	// Nested mount names create intermediate directories.
	got, err = os.ReadFile(filepath.Join(s.Dir, "bin", "blast"))
	if err != nil || string(got) != "binary bytes" {
		t.Fatalf("bin/blast = %q err=%v", got, err)
	}
}

func TestCreateDirectoryInputSymlinked(t *testing.T) {
	cacheDir := t.TempDir()
	pkg := filepath.Join(cacheDir, "dir-pkg")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(pkg, "tool"), []byte("exe"), 0o755)
	cachePath := func(name string) string { return filepath.Join(cacheDir, name) }

	s, err := Create(t.TempDir(), "t.2", []taskspec.Mount{{FileID: "dir-pkg", Name: "blast"}}, nil, cachePath)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()
	got, err := os.ReadFile(filepath.Join(s.Dir, "blast", "tool"))
	if err != nil || string(got) != "exe" {
		t.Fatalf("tool = %q err=%v", got, err)
	}
	// Must be a symlink so concurrent tasks share one unpacked tree.
	info, err := os.Lstat(filepath.Join(s.Dir, "blast"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode()&os.ModeSymlink == 0 {
		t.Fatal("directory input was copied, not shared")
	}
}

func TestCreateMissingInputFails(t *testing.T) {
	_, cachePath := fakeCache(t, nil)
	root := t.TempDir()
	_, err := Create(root, "t.3", []taskspec.Mount{{FileID: "absent", Name: "x"}}, nil, cachePath)
	if err == nil {
		t.Fatal("missing input accepted")
	}
	// Failed creation must not leave a stray sandbox behind.
	ents, _ := os.ReadDir(root)
	if len(ents) != 0 {
		t.Fatalf("stray sandbox left behind: %v", ents)
	}
}

func TestExtractOutputs(t *testing.T) {
	cacheDir, cachePath := fakeCache(t, nil)
	outputs := []taskspec.Mount{{FileID: "temp-xyz123", Name: "output.txt"}}
	s, err := Create(t.TempDir(), "t.4", nil, outputs, cachePath)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()
	if err := os.WriteFile(filepath.Join(s.Dir, "output.txt"), []byte("result data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ExtractOutputs(cachePath); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(cacheDir, "temp-xyz123"))
	if err != nil || string(got) != "result data" {
		t.Fatalf("cache object = %q err=%v", got, err)
	}
}

func TestExtractMissingOutputFails(t *testing.T) {
	_, cachePath := fakeCache(t, nil)
	outputs := []taskspec.Mount{{FileID: "temp-a", Name: "never-created"}}
	s, err := Create(t.TempDir(), "t.5", nil, outputs, cachePath)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()
	if err := s.ExtractOutputs(cachePath); err == nil {
		t.Fatal("missing output extracted successfully")
	}
}

func TestExtractDirectoryOutput(t *testing.T) {
	cacheDir, cachePath := fakeCache(t, nil)
	outputs := []taskspec.Mount{{FileID: "task-tree", Name: "outdir"}}
	s, err := Create(t.TempDir(), "t.6", nil, outputs, cachePath)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()
	if err := os.MkdirAll(filepath.Join(s.Dir, "outdir", "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(s.Dir, "outdir", "sub", "f"), []byte("12345"), 0o644)
	if err := s.ExtractOutputs(cachePath); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(cacheDir, "task-tree", "sub", "f")); err != nil {
		t.Fatal("directory output not in cache")
	}
}

func TestDestroyRemovesEverything(t *testing.T) {
	_, cachePath := fakeCache(t, map[string]string{"f": "x"})
	s, err := Create(t.TempDir(), "t.7", []taskspec.Mount{{FileID: "f", Name: "in"}}, nil, cachePath)
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(s.Dir, "scratch"), []byte("junk"), 0o644)
	if err := s.Destroy(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.Dir); !os.IsNotExist(err) {
		t.Fatal("sandbox survived Destroy")
	}
}

func TestSharedInputNotCopied(t *testing.T) {
	// Two sandboxes mounting the same cached file must share storage:
	// writing through the cache is forbidden, but the link count or
	// symlink proves no copy was made.
	cacheDir, cachePath := fakeCache(t, map[string]string{"shared": "common input"})
	root := t.TempDir()
	s1, err := Create(root, "t.8", []taskspec.Mount{{FileID: "shared", Name: "in"}}, nil, cachePath)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Destroy()
	s2, err := Create(root, "t.9", []taskspec.Mount{{FileID: "shared", Name: "in"}}, nil, cachePath)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Destroy()

	p1 := filepath.Join(s1.Dir, "in")
	info, err := os.Lstat(p1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode()&os.ModeSymlink == 0 {
		// Hard link: all three names resolve to one inode; proving it via
		// content identity after modification is destructive, so check
		// sizes and that the cache copy still exists.
		if _, err := os.Stat(filepath.Join(cacheDir, "shared")); err != nil {
			t.Fatal("cache copy missing")
		}
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(filepath.Join(s2.Dir, "in"))
	if string(b1) != "common input" || string(b2) != "common input" {
		t.Fatal("shared input content mismatch")
	}
}
