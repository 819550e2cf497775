// Package sandbox builds the private execution namespaces of Figure 4.
//
// Each task executes in a sandbox directory where every input object is
// linked in from the worker cache under its user-readable mount name, and
// every declared output is extracted back into the cache under its
// manager-assigned cache name when the task completes. The sandbox is
// deleted afterwards, so the only persistent data objects are those
// explicitly extracted.
package sandbox

import (
	"fmt"
	"os"
	"path/filepath"

	"taskvine/internal/taskspec"
)

// Sandbox is one task's private directory.
type Sandbox struct {
	// Dir is the sandbox root; the task's working directory.
	Dir     string
	name    string
	inputs  []taskspec.Mount
	outputs []taskspec.Mount
}

// Create builds a sandbox under root with a caller-chosen unique name,
// linking each input from the cache. cachePath maps a cache name to its
// on-disk location. Inputs are shared immutably with the cache and any
// concurrently running tasks: plain files are hard-linked where possible
// (falling back to symlinks), directories are symlinked. The name must be
// unique per execution — two executions may share a task ID (e.g. identical
// MiniTasks materializing different files), but never a sandbox.
func Create(root string, name string, inputs, outputs []taskspec.Mount, cachePath func(string) string) (*Sandbox, error) {
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sandbox: creating %s: %w", dir, err)
	}
	s := &Sandbox{Dir: dir, name: name, inputs: inputs, outputs: outputs}
	for _, m := range inputs {
		src := cachePath(m.FileID)
		dst := filepath.Join(dir, m.Name)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			s.Destroy()
			return nil, fmt.Errorf("sandbox: preparing mount %s: %w", m.Name, err)
		}
		if err := linkIn(src, dst); err != nil {
			s.Destroy()
			return nil, fmt.Errorf("sandbox: mounting %s as %s: %w", m.FileID, m.Name, err)
		}
	}
	return s, nil
}

func linkIn(src, dst string) error {
	info, err := os.Stat(src)
	if err != nil {
		return err
	}
	if info.IsDir() {
		return os.Symlink(src, dst)
	}
	if err := os.Link(src, dst); err != nil {
		// Hard links can fail across filesystems; a symlink preserves the
		// immutable-sharing semantics.
		return os.Symlink(src, dst)
	}
	return nil
}

// ExtractOutputs moves each declared output from the sandbox into the cache
// under its cache name; the cache measures what it commits. Outputs must
// exist; a missing output is reported as an error naming the mount, which
// the manager propagates as a task failure.
func (s *Sandbox) ExtractOutputs(cachePath func(string) string) error {
	for _, m := range s.outputs {
		src := filepath.Join(s.Dir, m.Name)
		if _, err := os.Stat(src); err != nil {
			return fmt.Errorf("sandbox: task %s did not produce declared output %q: %w", s.name, m.Name, err)
		}
		if err := os.Rename(src, cachePath(m.FileID)); err != nil {
			return fmt.Errorf("sandbox: extracting %q to cache: %w", m.Name, err)
		}
	}
	return nil
}

// Destroy removes the sandbox directory and everything in it.
func (s *Sandbox) Destroy() error {
	return os.RemoveAll(s.Dir)
}
